import json
import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from radiofp.channel import ChannelSpec, add_awgn, propagate
from radiofp.config import json_text, schedule_document
from radiofp.detect import DetectorParams, detect_bursts
from radiofp.dsp import BLOCK_SAMPLES, CF32_LE, IqRecording, as_complex_array, instantaneous, seal
from radiofp.emitter import BurstSpan, EmitterProfile, TransmissionSchedule, render_session
from radiofp.errors import (
    ConsistencyError,
    CorruptDataError,
    UnsupportedFormatError,
    ValidationError,
)
from radiofp.features import extract, instantaneous_stats, spectral_features, transient_features, wpd_energies
from radiofp.receiver import ReceiverConfig, acquire, acquire_power
from radiofp.sigmf_io import (
    AnnotationSpan,
    CaptureInfo,
    DatasetSeeds,
    SessionMeta,
    build_dataset,
    read_manifest,
    read_recording,
    regenerate_from_manifest,
    schedule_to_doc,
    write_recording,
)

FS = 1.0e5


def f32_exact(samples):
    """Round complex samples to their float32 representation."""
    return np.asarray(samples, dtype=np.complex64).astype(np.complex128)


def simple_meta(annotations=()):
    return SessionMeta(description="test", annotations=tuple(annotations))


class TestWriteReadRecording:
    def test_single_sample_byte_layout(self, tmp_path):
        rec = IqRecording([1.0 + 2.0j], FS, id="one")
        dpath, _ = write_recording(rec, simple_meta(), tmp_path / "one")
        raw = dpath.read_bytes()
        assert len(raw) == 8
        assert raw == struct.pack("<ff", 1.0, 2.0)

    def test_empty_recording(self, tmp_path):
        rec = IqRecording(np.zeros(0, dtype=complex), FS, id="empty")
        dpath, mpath = write_recording(rec, simple_meta(), tmp_path / "empty")
        assert dpath.stat().st_size == 0
        loaded, _ = read_recording(tmp_path / "empty")
        assert len(loaded) == 0
        assert json.loads(mpath.read_text())["global"]["workbench:sample_count"] == 0

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = f32_exact(rng.standard_normal(500) + 1j * rng.standard_normal(500))
        rec = IqRecording(samples, FS, 433e6, id="rt")
        annotations = [AnnotationSpan(10, 100, "dev-a"), AnnotationSpan(200, 50, "dev-b")]
        write_recording(rec, simple_meta(annotations), tmp_path / "rt")
        loaded, meta = read_recording(tmp_path / "rt")
        np.testing.assert_array_equal(loaded.samples, samples)
        assert loaded.sample_rate_hz == FS
        assert loaded.center_freq_hz == 433e6
        assert loaded.id == "rt"
        assert meta.annotations == tuple(annotations)
        assert meta.description == "test"

    def test_an_int_rate_rewrites_the_same_meta_bytes(self, tmp_path):
        """The int rate 100000 was written as 100000 and read back as 100000.0."""
        rec = IqRecording(f32_exact([1 + 2j, 3 - 4j]), 100000, id="int-rate")
        _, first = write_recording(rec, simple_meta(), tmp_path / "a")
        loaded, meta = read_recording(tmp_path / "a")
        _, second = write_recording(loaded, meta, tmp_path / "b")
        assert second.read_bytes() == first.read_bytes()

    def test_a_numpy_float32_rate_is_written(self, tmp_path):
        """json_text raised a bare TypeError on an np.float32 rate, after the data file was written."""
        write_recording(IqRecording([1 + 2j], np.float32(1e5), id="f32-rate"), simple_meta(), tmp_path / "f")
        loaded, _ = read_recording(tmp_path / "f")
        assert loaded.sample_rate_hz == 1e5

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = f32_exact(rng.standard_normal(200) * 1j)
        rec = IqRecording(samples, FS, id="x")
        d1, m1 = write_recording(rec, simple_meta(), tmp_path / "a")
        loaded, meta = read_recording(tmp_path / "a")
        d2, m2 = write_recording(loaded, meta, tmp_path / "b")
        assert d1.read_bytes() == d2.read_bytes()

    def test_blocks_write_the_interleaved_float32_bytes(self, tmp_path):
        n = 2 * BLOCK_SAMPLES + 37  # past two blocks, with a short tail
        rng = np.random.default_rng(4)
        full = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        full.real[::3] = -0.0
        full.imag[::5] = -0.0
        samples = seal(full[::2])  # a strided sealed view, adopted as it is
        rec = IqRecording(samples, FS, id="big")
        assert rec.samples is samples
        dpath, _ = write_recording(rec, simple_meta(), tmp_path / "big")
        want = np.empty(2 * n, dtype="<f4")
        want[0::2], want[1::2] = samples.real, samples.imag
        assert dpath.read_bytes() == want.tobytes()
        widened = np.empty(n, dtype=np.complex128)
        widened.real, widened.imag = want[0::2], want[1::2]  # each float32 part widened, its sign bit kept
        loaded, _ = read_recording(tmp_path / "big")
        assert loaded.samples.dtype == CF32_LE  # the file's samples as they are
        assert loaded.samples.tobytes() == want.tobytes()
        assert as_complex_array(loaded.samples).tobytes() == widened.tobytes()

    def test_write_holds_one_block_of_float32(self, tmp_path):
        rec = IqRecording(np.full(2 ** 20, 0.5 - 0.25j), FS, id="m")
        meta = simple_meta()
        tracemalloc.start()
        try:
            write_recording(rec, meta, tmp_path / "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "m.sigmf-data").stat().st_size == rec.samples.nbytes // 2
        assert peak < 0.1 * rec.samples.nbytes  # an interleaved copy of the whole capture is 0.5

    def test_out_of_bounds_annotation_rejected_before_write(self, tmp_path):
        rec = IqRecording(np.zeros(10, dtype=complex), FS, id="x")
        meta = simple_meta([AnnotationSpan(5, 20, "dev")])
        with pytest.raises(ValidationError):
            write_recording(rec, meta, tmp_path / "oob")
        assert not (tmp_path / "oob.sigmf-data").exists()

    def test_truncated_data_file(self, tmp_path):
        rec = IqRecording([1 + 1j, 2 + 2j], FS, id="x")
        dpath, _ = write_recording(rec, simple_meta(), tmp_path / "t")
        dpath.write_bytes(dpath.read_bytes()[:7])
        with pytest.raises(CorruptDataError):
            read_recording(tmp_path / "t")

    def test_read_holds_the_capture_and_one_block(self, tmp_path):
        """The file is read in one call into one cf32_le capture (0.5 of a complex128 one):
        neither a second copy of the file's bytes nor a complex128 capture is held beside it."""
        rec = IqRecording(np.full(2 ** 20, 0.5 - 0.25j), FS, id="r")
        write_recording(rec, simple_meta(), tmp_path / "r")
        tracemalloc.start()
        try:
            loaded, _ = read_recording(tmp_path / "r")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.samples, rec.samples)
        assert peak <= 0.55 * rec.samples.nbytes  # 0.5; 1.0 with a complex128 capture

    def test_a_block_that_comes_back_short_names_the_file(self, tmp_path, monkeypatch):
        """A file that shrinks after its size was taken: the one read, the whole file as one block, ends early."""
        rec = IqRecording(np.ones(2 * BLOCK_SAMPLES + 5, dtype=complex), FS, id="s")
        dpath, _ = write_recording(rec, simple_meta(), tmp_path / "s")
        fromfile, calls = np.fromfile, []

        def shrinking(fh, dtype, count):
            calls.append(count)
            return fromfile(fh, dtype, count)[:count - 3]

        monkeypatch.setattr(np, "fromfile", shrinking)
        with pytest.raises(CorruptDataError, match=f"{dpath} ended at sample {2 * BLOCK_SAMPLES + 2} of "):
            read_recording(tmp_path / "s")
        assert calls == [2 * BLOCK_SAMPLES + 5]

    def test_sample_count_mismatch(self, tmp_path):
        rec = IqRecording(np.ones(50, dtype=complex), FS, id="x")
        _, mpath = write_recording(rec, simple_meta(), tmp_path / "m")
        doc = json.loads(mpath.read_text())
        doc["global"]["workbench:sample_count"] = 100
        mpath.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyError):
            read_recording(tmp_path / "m")

    def test_unknown_datatype(self, tmp_path):
        rec = IqRecording(np.ones(4, dtype=complex), FS, id="x")
        _, mpath = write_recording(rec, simple_meta(), tmp_path / "d")
        doc = json.loads(mpath.read_text())
        doc["global"]["core:datatype"] = "ci16_le"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedFormatError):
            read_recording(tmp_path / "d")

    def test_unknown_meta_fields_tolerated(self, tmp_path):
        rec = IqRecording(np.ones(4, dtype=complex), FS, id="x")
        _, mpath = write_recording(rec, simple_meta(), tmp_path / "p")
        doc = json.loads(mpath.read_text())
        doc["global"]["other_tool:setting"] = 42
        doc["extensions"] = []
        mpath.write_text(json.dumps(doc))
        loaded, _ = read_recording(tmp_path / "p")
        assert len(loaded) == 4

    def test_unsorted_annotations_rejected(self):
        with pytest.raises(ValidationError):
            SessionMeta(annotations=(AnnotationSpan(100, 10, "b"), AnnotationSpan(0, 10, "a")))

    def test_fields_are_keyword_only(self):
        """A call in the old field order (the rate first) fails instead of storing a rate as the description."""
        with pytest.raises(TypeError):
            SessionMeta(FS, "test")

    def test_global_fields_come_from_the_recording(self, tmp_path):
        rec = IqRecording(np.ones(3, dtype=complex), 2.5e5, id="rec-7")
        _, mpath = write_recording(rec, SessionMeta(), tmp_path / "g")
        assert json.loads(mpath.read_text())["global"] == {
            "core:datatype": "cf32_le", "core:description": "", "core:sample_rate": 2.5e5,
            "core:version": "1.0.0", "workbench:recording_id": "rec-7", "workbench:sample_count": 3,
        }
        loaded, meta = read_recording(tmp_path / "g")
        assert (loaded.sample_rate_hz, loaded.id, len(loaded)) == (2.5e5, "rec-7", 3)
        assert meta == SessionMeta(captures=(CaptureInfo(0, 0.0),))


class TestNarrowRead:
    """A read recording holds cf32_le samples; every stage, and every feature family on a plain slice of
    them, gives the bits it gives on the widened twin."""

    def session(self, tmp_path):
        n = 2 * BLOCK_SAMPLES + 1234  # past two blocks, with a short tail
        rng = np.random.default_rng(21)
        x = 0.002 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        truth = [BurstSpan("a", start, 2500) for start in range(3000, n - 3000, 9000)]
        for span in truth:
            x[span.start_sample:span.start_sample + span.length] += 0.5 * np.exp(0.02j * np.arange(span.length))
        x[rng.integers(0, n, 300)] = 1.0 - 1.0j  # railed
        x[rng.integers(0, n, 300)] = 0.7j  # float32(0.7) is below 0.7's rail in float64, at it in float32
        for i, (re, im) in enumerate([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)]):
            x[i::97] = complex(re, im)  # signed zeros everywhere, inside the bursts too
        rec = IqRecording(seal(x.astype(CF32_LE)), FS, id="narrow")
        write_recording(rec, simple_meta(), tmp_path / "narrow")
        narrow, _ = read_recording(tmp_path / "narrow")
        assert narrow.samples.dtype == CF32_LE
        assert np.signbit(narrow.samples.real[narrow.samples.real == 0]).any()
        wide = IqRecording(seal(as_complex_array(narrow.samples)), FS, id="narrow")
        assert wide.samples.dtype == np.complex128
        return narrow, wide, truth

    def test_every_stage_gives_the_bits_of_the_widened_twin(self, tmp_path):
        narrow, wide, truth = self.session(tmp_path)
        params = DetectorParams(window=32, min_length=64)
        rois = detect_bursts(narrow, params)
        assert rois == detect_bursts(wide, params)
        assert len(rois) >= len(truth)
        families = (lambda z: instantaneous(z, FS), lambda z: instantaneous_stats(z, FS), transient_features,
                    lambda z: wpd_energies(z, 4), lambda z: spectral_features(z, FS))
        for roi in rois:
            assert roi.slice_of(narrow).tobytes() == roi.slice_of(wide).tobytes()
            assert extract(roi, narrow).tobytes() == extract(roi, wide).tobytes()
            # A plain slice of the cf32_le samples is widened as a ROI's slice is: a (-0, +0) sample has phase 0.
            plain = narrow.samples[roi.start_sample:roi.end_sample]
            for family in families:
                got, want = family(plain), family(roi.slice_of(narrow))
                if isinstance(got, dict):
                    got, want = list(got.values()), list(want.values())
                assert np.concatenate(got, axis=None).tobytes() == np.concatenate(want, axis=None).tobytes()
        clips = {}
        for full_scale in (1.0, 0.7):
            quiet = ReceiverConfig(filter_bw_hz=0.4 * FS, gain_db=6.0, adc_bits=10, full_scale=full_scale)
            narrow_power, wide_power = np.empty(len(wide)), np.empty(len(wide))
            clips[full_scale] = acquire_power(narrow.samples, FS, quiet, narrow_power)
            assert clips[full_scale] == acquire_power(wide.samples, FS, quiet, wide_power)
            assert narrow_power.tobytes() == wide_power.tobytes()
        assert clips[1.0] > 0
        rx = ReceiverConfig(filter_bw_hz=0.4 * FS, gain_db=2.0, adc_bits=10, frontend_noise_power=1e-6)
        channel = ChannelSpec(snr_db=20.0, multipath_taps=((0, 1 + 0j), (7, 0.1j)), path_loss_db=1.0)
        for stage in (lambda rec: acquire(rec, rx, seed=4), lambda rec: propagate(rec, truth, channel, seed=5),
                      lambda rec: propagate(rec, truth, ChannelSpec(path_loss_db=3.0), seed=5),  # keeps signed zeros
                      lambda rec: add_awgn(rec, 15.0, 0.25, seed=6)):
            made = stage(narrow)
            assert made.samples.dtype == np.complex128
            assert made.samples.tobytes() == stage(wide).samples.tobytes()


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


def dump_schedule(schedule, profiles, path):
    """A schedule document as the manifest embeds it, written to path."""
    path.write_text(json_text(schedule_to_doc(schedule, profiles)))
    return path


def load_schedule(path):
    return schedule_document(json.loads(path.read_text()))


class TestScheduleRoundTrip:
    def test_empty_schedule(self, tmp_path):
        schedule = TransmissionSchedule((), 1.0)
        path = dump_schedule(schedule, {}, tmp_path / "empty.json")
        loaded_schedule, loaded_profiles = load_schedule(path)
        assert loaded_schedule.entries == ()
        assert loaded_schedule.session_duration_s == 1.0
        assert loaded_profiles == {}

    def test_full_round_trip_field_identical(self, tmp_path):
        schedule = example_schedule()
        profiles = example_profiles()
        path = dump_schedule(schedule, profiles, tmp_path / "sched.json")
        loaded_schedule, loaded_profiles = load_schedule(path)
        assert loaded_schedule == schedule
        assert loaded_profiles == profiles

    def test_unknown_field_named_in_error(self, tmp_path):
        schedule = example_schedule(3)
        path = dump_schedule(schedule, example_profiles(), tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["profiles"][0]["mystery_knob"] = 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="mystery_knob"):
            load_schedule(path)

    def test_duplicate_emitter_rejected(self, tmp_path):
        schedule = example_schedule(3)
        path = dump_schedule(schedule, example_profiles(), tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["profiles"].append(dict(doc["profiles"][0]))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            load_schedule(path)

    def test_entry_referencing_unknown_profile(self, tmp_path):
        schedule = example_schedule(3)
        path = dump_schedule(schedule, example_profiles(), tmp_path / "s.json")
        doc = json.loads(path.read_text())
        doc["entries"][0]["emitter_id"] = "ghost"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="ghost"):
            load_schedule(path)


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

    def test_one_buffer_gives_the_bytes_of_the_stage_by_stage_chain(self, tmp_path):
        schedule, profiles, seeds = example_schedule(5), example_profiles(), DatasetSeeds(1, 2, 3)
        result = build_dataset(schedule, profiles, self.channel(), self.receiver(), seeds, tmp_path / "one", FS, 32)
        rendered, truth = render_session(schedule, profiles, FS, 32, seeds.render)
        acquired = acquire(propagate(rendered, truth, self.channel(), seeds.channel), self.receiver(), seeds.frontend)
        annotations = [AnnotationSpan(span.start_sample, span.length, span.emitter_id)
                       for span in sorted(truth, key=lambda s: (s.start_sample, s.emitter_id))]
        write_recording(acquired, SessionMeta(description="synthesized session", annotations=annotations),
                        tmp_path / "chain")
        assert result.data_file.read_bytes() == (tmp_path / "chain.sigmf-data").read_bytes()
        assert result.meta_file.read_bytes() == (tmp_path / "chain.sigmf-meta").read_bytes()

    def test_peak_memory_is_one_capture_and_the_burst_power(self, tmp_path):
        """Render, channel and receiver on one buffer: the capture, the burst samples' power
        (a float each, while the AWGN reference is measured) and a few blocks."""
        n = 2 ** 20  # large against the blocks of BLOCK_SAMPLES
        entries = tuple((["a", "b", "c"][i % 3], 4096 * i / FS, (1, 0, 1, 1) * 16) for i in range(n // 4096))
        schedule = TransmissionSchedule(entries, n / FS)  # 2048-sample bursts: half the samples
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_dataset(schedule, example_profiles(), self.channel(), self.receiver(), DatasetSeeds(1, 2, 3),
                          tmp_path, FS, 32)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * n * 16

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

    @pytest.mark.parametrize("blocked", ["session.sigmf-meta", "manifest.json"])
    def test_a_failed_write_leaves_no_partial_output(self, tmp_path, blocked):
        (tmp_path / blocked).mkdir()  # a directory where a file goes: renaming onto it fails
        with pytest.raises(OSError):
            build_dataset(
                example_schedule(2), example_profiles(), self.channel(), self.receiver(),
                DatasetSeeds(1, 2, 3), tmp_path, FS, 32,
            )
        assert [path.name for path in tmp_path.iterdir()] == [blocked]

    def test_manifest_replay_byte_identical(self, tmp_path):
        first = build_dataset(
            example_schedule(6), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(11, 22, 33), tmp_path / "run1", FS, 32,
        )
        second = regenerate_from_manifest(first.manifest_file, tmp_path / "run2")
        assert first.data_file.read_bytes() == second.data_file.read_bytes()
        assert first.meta_file.read_bytes() == second.meta_file.read_bytes()

    @pytest.mark.parametrize("stem", ["", ".", "..", "../escaped", "{tmp}/escaped", "a\\b", "a\0b"])
    def test_manifest_stem_that_is_not_a_bare_file_name_rejected(self, tmp_path, stem):
        first = build_dataset(
            example_schedule(2), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path / "run1", FS, 32,
        )
        doc = json.loads(first.manifest_file.read_text())
        doc["sessions"][0]["stem"] = stem.format(tmp=tmp_path)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"sessions\[0\]\.stem must be a bare file name"):
            regenerate_from_manifest(bad, tmp_path / "run2" / "inner")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad_manifest.json", "run1"]

    @pytest.mark.parametrize("stem", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_a_stem_that_is_not_a_bare_file_name_is_refused(self, tmp_path, stem):
        out = tmp_path / "out" / "d"
        with pytest.raises(ValidationError, match=r"^stem must be a bare file name"):
            build_dataset(example_schedule(2), example_profiles(), self.channel(), self.receiver(),
                          DatasetSeeds(1, 2, 3), out, FS, 32, stem=stem)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, value", [("data_file", "elsewhere.sigmf-data"), ("meta_file", "session.json"),
                                             ("data_file", "session.sigmf-meta")])
    def test_a_data_or_meta_file_that_is_not_the_stems_is_refused(self, tmp_path, name, value):
        first = build_dataset(
            example_schedule(2), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path / "run1", FS, 32,
        )
        doc = json.loads(first.manifest_file.read_text())
        doc["sessions"][0][name] = value
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(doc))
        want = "session.sigmf-data" if name == "data_file" else "session.sigmf-meta"
        with pytest.raises(ValidationError, match=rf"^sessions\[0\]\.{name} must be '{want}', got '{value}'$"):
            regenerate_from_manifest(bad, tmp_path / "run2")
        assert not (tmp_path / "run2").exists()

    def test_a_manifest_of_two_sessions_is_refused(self, tmp_path):
        first = build_dataset(
            example_schedule(2), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path / "run1", FS, 32,
        )
        doc = json.loads(first.manifest_file.read_text())
        doc["sessions"].append(doc["sessions"][0])
        bad = tmp_path / "two_sessions.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="exactly one session"):
            regenerate_from_manifest(bad, tmp_path / "run2")
        assert not (tmp_path / "run2").exists()

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

    def test_manifest_bandwidth_at_the_sample_rate_rejected(self, tmp_path):
        result = build_dataset(
            example_schedule(2), example_profiles(), self.channel(), self.receiver(),
            DatasetSeeds(1, 2, 3), tmp_path, FS, 32,
        )
        doc = json.loads(result.manifest_file.read_text())
        doc["receiver"]["filter_bw_hz"] = FS
        bad = tmp_path / "wide_manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="receiver.filter_bw_hz"):
            read_manifest(bad)
        with pytest.raises(ValidationError, match="receiver.filter_bw_hz"):
            regenerate_from_manifest(bad, tmp_path / "again")
        assert not (tmp_path / "again").exists()


def test_what_the_library_writes_it_reads_back(tmp_path):
    """A store saved from fingerprints at the edges of their fields, and a session written from a recording
    whose rates and annotations are numpy scalars, load back equal: what a record accepts, its file keeps."""
    from radiofp.features import FeatureSelection
    from radiofp.verify import DeviceFingerprint, load_fingerprint_store, save_fingerprint_store

    selection = FeatureSelection((0, 1), np.zeros(2))
    fps = [DeviceFingerprint("edge", "fc1-test", selection, np.zeros(2), np.eye(2), 0, np.float32(1e-30),
                             np.int64(1)),
           DeviceFingerprint("wide", "fc1-test", selection, np.ones(2), 2 * np.eye(2), np.float32(0.5),
                             sys.float_info.max, 10)]
    save_fingerprint_store(fps, tmp_path / "store.json")
    store = load_fingerprint_store(tmp_path / "store.json")
    assert [(fp.ridge_lambda, fp.threshold, fp.n_enrolled) for fp in store.values()] == [
        (0.0, float(np.float32(1e-30)), 1), (0.5, sys.float_info.max, 10)]

    rec = IqRecording(f32_exact([1 + 2j, 3 - 4j, 5j]), np.float32(48000.0), np.int64(0), id="np")
    write_recording(rec, simple_meta([AnnotationSpan(np.int64(1), np.int32(2), "dev")]), tmp_path / "np")
    loaded, meta = read_recording(tmp_path / "np")
    assert (loaded.sample_rate_hz, loaded.center_freq_hz, loaded.id) == (48000.0, 0.0, "np")
    assert meta.annotations == (AnnotationSpan(1, 2, "dev"),)
