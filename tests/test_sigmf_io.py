import json
import math
import struct

import numpy as np
import pytest

from radiofp.channel import ChannelSpec
from radiofp.dsp import IqRecording
from radiofp.emitter import EmitterProfile, TransmissionSchedule
from radiofp.errors import (
    ConsistencyError,
    CorruptDataError,
    UnsupportedFormatError,
    ValidationError,
)
from radiofp.receiver import ReceiverConfig
from radiofp.sigmf_io import (
    AnnotationSpan,
    DatasetSeeds,
    SessionMeta,
    build_dataset,
    read_manifest,
    read_recording,
    read_schedule,
    regenerate_from_manifest,
    write_recording,
    write_schedule,
)

FS = 1.0e5


def f32_exact(samples):
    """Round complex samples to their float32 representation."""
    return np.asarray(samples, dtype=np.complex64).astype(np.complex128)


def simple_meta(recording, annotations=()):
    return SessionMeta(
        sample_rate_hz=recording.sample_rate_hz,
        description="test",
        recording_id=recording.id,
        annotations=tuple(annotations),
    )


class TestWriteReadRecording:
    def test_single_sample_byte_layout(self, tmp_path):
        rec = IqRecording([1.0 + 2.0j], FS, id="one")
        dpath, _ = write_recording(rec, simple_meta(rec), tmp_path / "one")
        raw = dpath.read_bytes()
        assert len(raw) == 8
        assert raw == struct.pack("<ff", 1.0, 2.0)

    def test_empty_recording(self, tmp_path):
        rec = IqRecording(np.zeros(0, dtype=complex), FS, id="empty")
        dpath, mpath = write_recording(rec, simple_meta(rec), tmp_path / "empty")
        assert dpath.stat().st_size == 0
        loaded, meta = read_recording(tmp_path / "empty")
        assert len(loaded) == 0
        assert meta.sample_count == 0

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = f32_exact(rng.standard_normal(500) + 1j * rng.standard_normal(500))
        rec = IqRecording(samples, FS, 433e6, id="rt")
        annotations = [AnnotationSpan(10, 100, "dev-a"), AnnotationSpan(200, 50, "dev-b")]
        write_recording(rec, simple_meta(rec, annotations), tmp_path / "rt")
        loaded, meta = read_recording(tmp_path / "rt")
        np.testing.assert_array_equal(loaded.samples, samples)
        assert loaded.sample_rate_hz == FS
        assert loaded.center_freq_hz == 433e6
        assert loaded.id == "rt"
        assert meta.annotations == tuple(annotations)
        assert meta.description == "test"

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = f32_exact(rng.standard_normal(200) * 1j)
        rec = IqRecording(samples, FS, id="x")
        d1, m1 = write_recording(rec, simple_meta(rec), tmp_path / "a")
        loaded, meta = read_recording(tmp_path / "a")
        d2, m2 = write_recording(loaded, meta, tmp_path / "b")
        assert d1.read_bytes() == d2.read_bytes()

    def test_out_of_bounds_annotation_rejected_before_write(self, tmp_path):
        rec = IqRecording(np.zeros(10, dtype=complex), FS, id="x")
        meta = simple_meta(rec, [AnnotationSpan(5, 20, "dev")])
        with pytest.raises(ValidationError):
            write_recording(rec, meta, tmp_path / "oob")
        assert not (tmp_path / "oob.sigmf-data").exists()

    def test_truncated_data_file(self, tmp_path):
        rec = IqRecording([1 + 1j, 2 + 2j], FS, id="x")
        dpath, _ = write_recording(rec, simple_meta(rec), tmp_path / "t")
        dpath.write_bytes(dpath.read_bytes()[:7])
        with pytest.raises(CorruptDataError):
            read_recording(tmp_path / "t")

    def test_sample_count_mismatch(self, tmp_path):
        rec = IqRecording(np.ones(50, dtype=complex), FS, id="x")
        _, mpath = write_recording(rec, simple_meta(rec), tmp_path / "m")
        doc = json.loads(mpath.read_text())
        doc["global"]["workbench:sample_count"] = 100
        mpath.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyError):
            read_recording(tmp_path / "m")

    def test_unknown_datatype(self, tmp_path):
        rec = IqRecording(np.ones(4, dtype=complex), FS, id="x")
        _, mpath = write_recording(rec, simple_meta(rec), tmp_path / "d")
        doc = json.loads(mpath.read_text())
        doc["global"]["core:datatype"] = "ci16_le"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedFormatError):
            read_recording(tmp_path / "d")

    def test_unknown_meta_fields_tolerated(self, tmp_path):
        rec = IqRecording(np.ones(4, dtype=complex), FS, id="x")
        _, mpath = write_recording(rec, simple_meta(rec), tmp_path / "p")
        doc = json.loads(mpath.read_text())
        doc["global"]["other_tool:setting"] = 42
        doc["extensions"] = []
        mpath.write_text(json.dumps(doc))
        loaded, _ = read_recording(tmp_path / "p")
        assert len(loaded) == 4

    def test_unsorted_annotations_rejected(self):
        with pytest.raises(ValidationError):
            SessionMeta(
                sample_rate_hz=FS,
                annotations=(AnnotationSpan(100, 10, "b"), AnnotationSpan(0, 10, "a")),
            )


def example_profiles():
    return {
        "a": EmitterProfile("a", cfo_hz=150.0, pa_a1=0.9 + 0.1j, ramp_up_samples=20),
        "b": EmitterProfile("b", iq_gain_imbalance=1.1, phase_noise_linewidth_hz=12.5),
        "c": EmitterProfile("c", pa_a3=-0.04 + 0.002j, ramp_down_samples=31),
    }


def example_schedule(n_entries=10):
    entries = tuple(
        (["a", "b", "c"][i % 3], 0.004 * i, (1, 0, 1, 1)) for i in range(n_entries)
    )
    return TransmissionSchedule(entries, 0.004 * n_entries + 0.01)


class TestScheduleRoundTrip:
    def test_empty_schedule(self, tmp_path):
        schedule = TransmissionSchedule((), 1.0)
        path = write_schedule(schedule, {}, tmp_path / "empty.json")
        loaded_schedule, loaded_profiles = read_schedule(path)
        assert loaded_schedule.entries == ()
        assert loaded_schedule.session_duration_s == 1.0
        assert loaded_profiles == {}

    def test_full_round_trip_field_identical(self, tmp_path):
        schedule = example_schedule()
        profiles = example_profiles()
        path = write_schedule(schedule, profiles, tmp_path / "sched.json")
        loaded_schedule, loaded_profiles = read_schedule(path)
        assert loaded_schedule == schedule
        assert loaded_profiles == profiles

    def test_unknown_field_named_in_error(self, tmp_path):
        schedule = example_schedule(3)
        path = write_schedule(schedule, example_profiles(), tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["profiles"][0]["mystery_knob"] = 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="mystery_knob"):
            read_schedule(path)

    def test_duplicate_emitter_rejected(self, tmp_path):
        schedule = example_schedule(3)
        path = write_schedule(schedule, example_profiles(), tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["profiles"].append(dict(doc["profiles"][0]))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            read_schedule(path)

    def test_entry_referencing_unknown_profile(self, tmp_path):
        schedule = example_schedule(3)
        path = write_schedule(schedule, example_profiles(), tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["entries"][0]["emitter_id"] = "ghost"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="ghost"):
            read_schedule(path)


class TestBuildDataset:
    def channel(self):
        return ChannelSpec(snr_db=25.0, multipath_taps=((0, 1 + 0j), (3, 0.2 - 0.1j)),
                           path_loss_db=6.0)

    def receiver(self):
        return ReceiverConfig(filter_bw_hz=0.5 * FS, gain_db=6.0, adc_bits=12)

    def test_single_session_pair_and_manifest(self, tmp_path):
        result = build_dataset(
            example_schedule(4), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path, FS, 32,
        )
        assert result.data_file.exists()
        assert result.meta_file.exists()
        assert result.manifest_file.exists()
        recording, meta = read_recording(result.data_file.with_suffix(""))
        assert len(meta.annotations) == 4
        assert len(recording) == int(round(FS * example_schedule(4).session_duration_s))

    def test_annotations_match_ground_truth(self, tmp_path):
        result = build_dataset(
            example_schedule(5), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path, FS, 32,
        )
        _, meta = read_recording(result.data_file.with_suffix(""))
        truth = sorted(result.ground_truth, key=lambda s: s.start_sample)
        for ann, span in zip(meta.annotations, truth):
            assert (ann.sample_start, ann.sample_count, ann.label) == \
                   (span.start_sample, span.length, span.emitter_id)

    def test_manifest_replay_byte_identical(self, tmp_path):
        first = build_dataset(
            example_schedule(6), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(11, 22, 33), tmp_path / "run1", FS, 32,
        )
        second = regenerate_from_manifest(first.manifest_file, tmp_path / "run2")
        assert first.data_file.read_bytes() == second.data_file.read_bytes()
        assert first.meta_file.read_bytes() == second.meta_file.read_bytes()

    def test_noiseless_channel_serializes(self, tmp_path):
        channel = ChannelSpec(snr_db=math.inf)
        first = build_dataset(
            example_schedule(2), example_profiles(), channel, self.receiver(),
            DatasetSeeds(5, 6, 7), tmp_path / "r1", FS, 32,
        )
        second = regenerate_from_manifest(first.manifest_file, tmp_path / "r2")
        assert first.data_file.read_bytes() == second.data_file.read_bytes()

    def test_manifest_missing_seed_rejected(self, tmp_path):
        result = build_dataset(
            example_schedule(2), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path, FS, 32,
        )
        doc = json.loads(result.manifest_file.read_text())
        del doc["seeds"]["channel"]
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="channel"):
            read_manifest(bad)

    def test_manifest_unknown_field_rejected(self, tmp_path):
        result = build_dataset(
            example_schedule(2), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path, FS, 32,
        )
        doc = json.loads(result.manifest_file.read_text())
        doc["surprise"] = True
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="surprise"):
            read_manifest(bad)

    def test_manifest_over_the_session_cap_rejected(self, tmp_path):
        result = build_dataset(
            example_schedule(2), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path, FS, 32,
        )
        doc = json.loads(result.manifest_file.read_text())
        doc["schedule"]["session_duration_s"] = 1e5  # 10^10 samples at 100 kHz
        bad = tmp_path / "big_manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="schedule.session_duration_s"):
            regenerate_from_manifest(bad, tmp_path / "again")
        assert not (tmp_path / "again").exists()
