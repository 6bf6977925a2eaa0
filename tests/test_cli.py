import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radiofp.channel import propagate
from radiofp.cli import COMMANDS, FEATURE_CSV_PREFIX, _read_feature_table, main
from radiofp.config import EXPERIMENT, build_schedule, parse
from radiofp.detect import detect_bursts
from radiofp.emitter import render_session
from radiofp.features import ExtractionConfig, catalog_names
from radiofp.receiver import acquire
from radiofp.tuning import ObjectiveParams, TuningGrid, objective, tune, write_trace_csv
from radiofp.verify import load_fingerprint_store, save_fingerprint_store

FS = 1.0e5


def base_config(n_bursts=12, snr_db=25.0, duration_s=None, seeds=(101, 202, 303)):
    """A small two-emitter experiment config.

    Bursts are 256 samples every 10 ms, so they occupy ~26% of the session
    and the detector's median noise floor stays honest.
    """
    spacing = 0.01
    if duration_s is None:
        duration_s = spacing * n_bursts + 0.01
    entries = [
        {"emitter_id": ["alpha", "beta"][i % 2], "start_time_s": spacing * i,
         "payload_bits": [1] * 16}
        for i in range(n_bursts)
    ]
    return {
        "sample_rate_hz": FS,
        "samples_per_symbol": 16,
        "seeds": {"render": seeds[0], "channel": seeds[1], "frontend": seeds[2]},
        "profiles": [
            {"emitter_id": "alpha", "cfo_hz": 400.0, "iq_gain_imbalance": 1.0,
             "iq_phase_imbalance_rad": 0.0, "phase_noise_linewidth_hz": 5.0,
             "pa_a1": [1.0, 0.0], "pa_a3": [-0.03, 0.0],
             "ramp_up_samples": 40, "ramp_down_samples": 40},
            {"emitter_id": "beta", "cfo_hz": -700.0, "iq_gain_imbalance": 1.0,
             "iq_phase_imbalance_rad": 0.0, "phase_noise_linewidth_hz": 30.0,
             "pa_a1": [0.85, 0.0], "pa_a3": [0.0, 0.0],
             "ramp_up_samples": 120, "ramp_down_samples": 10},
        ],
        "schedule": {"session_duration_s": duration_s, "entries": entries},
        "channel": {"snr_db": snr_db, "multipath_taps": [[0, 1.0, 0.0]], "path_loss_db": 3.0},
        "receiver": {"filter_bw_hz": 0.4 * FS, "gain_db": 0.0, "adc_bits": 12,
                     "full_scale": 1.0, "frontend_noise_power": 1e-8},
        "detector": {"window": 64, "open_threshold_db": 10.0, "close_threshold_db": 6.0,
                     "min_length": 64, "merge_gap": 64},
        "extraction": {"wpd_depth": 4},
        "enrollment": {"ridge_lambda": 0.001, "keep_features": 10},
    }


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


@pytest.fixture()
def synth_dataset(tmp_path):
    config_path = write_config(tmp_path, base_config())
    out = tmp_path / "data"
    assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
    return config_path, out


class TestSynth:
    def test_creates_session_pair_and_manifest(self, synth_dataset, capsys):
        _, out = synth_dataset
        assert (out / "session.sigmf-data").exists()
        assert (out / "session.sigmf-meta").exists()
        assert (out / "manifest.json").exists()

    def test_missing_seed_exits_2_naming_field(self, tmp_path, capsys):
        config = base_config()
        del config["seeds"]["render"]
        code = main(["synth", "--config", write_config(tmp_path, config),
                     "--out", str(tmp_path / "d")])
        captured = capsys.readouterr()
        assert code == 2
        assert "render" in captured.err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["synth", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["synth", "--config", config_path, "--out", str(out2)]) == 0
        assert (out1 / "session.sigmf-data").read_bytes() == (out2 / "session.sigmf-data").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    @pytest.mark.parametrize("stem", ["", ".", "..", "../escaped", "{tmp}/escaped/sess", "a\\b", "a\0b"])
    def test_stem_that_is_not_a_bare_file_name_exits_2_naming_it(self, tmp_path, stem):
        """A stem is joined onto --out: one that could leave it is refused before anything is written."""
        config = {**base_config(), "stem": stem.format(tmp=tmp_path)}
        code, err = run_main(["synth", "--config", write_config(tmp_path, config),
                              "--out", str(tmp_path / "out" / "data")])
        assert code == 2, err
        assert "stem must be a bare file name" in err and "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_seed_override_changes_data(self, tmp_path):
        config_path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["synth", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["synth", "--config", config_path, "--out", str(out2),
                     "--seed-override", "99"]) == 0
        assert (out1 / "session.sigmf-data").read_bytes() != (out2 / "session.sigmf-data").read_bytes()


class TestPipeline:
    def test_feature_rows_near_burst_count(self, synth_dataset, tmp_path):
        config_path, data_dir = synth_dataset
        out = tmp_path / "feat"
        assert main(["pipeline", "--config", config_path, "--dataset", str(data_dir),
                     "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "features.csv")
        assert header[:5] == ["session", "roi_index", "label", "start_sample", "length"]
        assert "cfo_est_hz" in header
        assert 10 <= len(rows) <= 14  # 12 bursts, detector may miss/split a couple
        labels = {row[2] for row in rows}
        assert labels <= {"alpha", "beta"}

    def test_rerun_identical_bytes(self, synth_dataset, tmp_path):
        config_path, data_dir = synth_dataset
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        for out in (out1, out2):
            assert main(["pipeline", "--config", config_path, "--dataset", str(data_dir),
                         "--out", str(out)]) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()

    def test_labels_follow_the_loop_rule_with_overlapping_annotations(self, synth_dataset, tmp_path):
        """A ROI takes the label of the first annotation it overlaps most, as the
        per-annotation loop below states it; the added annotations overlap the real ones."""
        config_path, data_dir = synth_dataset
        meta_path = data_dir / "session.sigmf-meta"
        meta = json.loads(meta_path.read_text())
        rng = np.random.default_rng(3)
        extra = []
        for ann in meta["annotations"]:
            start, count = ann["core:sample_start"], ann["core:sample_count"]
            extra.append({**ann, "core:label": "twin"})  # the same span, listed second: loses the tie
            extra.append({**ann, "core:label": "shifted",
                          "core:sample_start": max(0, start + int(rng.integers(-count // 2, count // 2))),
                          "core:sample_count": int(rng.integers(count // 2, 2 * count))})
        anns = sorted(meta["annotations"] + extra, key=lambda a: a["core:sample_start"])
        meta_path.write_text(json.dumps({**meta, "annotations": anns}))
        out = tmp_path / "feat"
        assert main(["pipeline", "--config", config_path, "--dataset", str(data_dir),
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "features.csv")
        for row in rows:
            start, end = int(row[3]), int(row[3]) + int(row[4])
            expected, best = "", 0
            for ann in anns:
                overlap = (min(end, ann["core:sample_start"] + ann["core:sample_count"])
                           - max(start, ann["core:sample_start"]))
                if overlap > best:
                    expected, best = ann["core:label"], overlap
            assert row[2] == expected
        assert {"shifted", "alpha", "beta"} <= {row[2] for row in rows}

    @pytest.mark.parametrize("argv", [["pipeline", "--dataset", "data", "--threads", "0"],
                                      ["pipeline", "--dataset", "data", "--threads", "-3"],
                                      ["tune", "--threads", "4"]],
                             ids=["pipeline-0", "pipeline-negative", "tune"])
    def test_bad_threads_exits_2_naming_it(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", "config.json", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_a_rejected_roi_is_dropped_and_leaves_a_gap(self, tmp_path):
        """A 1-bit burst is one ROI too short for the spectral features; only that ROI goes."""
        config = base_config()
        config["profiles"].append({**config["profiles"][0], "emitter_id": "gamma",
                                   "ramp_up_samples": 0, "ramp_down_samples": 0})
        config["schedule"]["entries"].append({"emitter_id": "gamma", "start_time_s": 0.0455,
                                              "payload_bits": [1]})
        config["detector"] = {"window": 16, "min_length": 1}
        config_path = write_config(tmp_path, config)
        assert main(["synth", "--config", config_path, "--out", str(tmp_path / "data")]) == 0
        code, err = run_main(["pipeline", "--config", config_path, "--dataset", str(tmp_path / "data"),
                              "--out", str(tmp_path / "feat"), "--verbose"])
        assert code == 0, err
        assert "session: 12 ROI(s), 1 dropped (SizeError)" in err
        _, rows = read_csv_rows(tmp_path / "feat" / "features.csv")
        assert [int(row[1]) for row in rows] == [0, 1, 2, 3, 4, *range(6, 13)]
        assert {row[2] for row in rows} == {"alpha", "beta"}

    def test_a_session_without_rois_is_not_a_failure(self, synth_dataset, tmp_path, capsys):
        """One session with no ROI next to a truncated one: one failure of two, so exit 0."""
        config_path, data_dir = synth_dataset
        data = data_dir / "session.sigmf-data"
        for stem in ("quiet", "truncated"):
            shutil.copy(data_dir / "session.sigmf-meta", data_dir / f"{stem}.sigmf-meta")
        (data_dir / "quiet.sigmf-data").write_bytes(bytes(data.stat().st_size))  # all zero: no ROI
        (data_dir / "truncated.sigmf-data").write_bytes(data.read_bytes()[:7])
        for path in data_dir.glob("session.*"):
            path.unlink()
        code = main(["pipeline", "--config", config_path, "--dataset", str(data_dir),
                     "--out", str(tmp_path / "feat")])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "truncated.sigmf-data" in err and "every session failed" not in err
        header, rows = read_csv_rows(tmp_path / "feat" / "features.csv")
        assert header[:5] == list(FEATURE_CSV_PREFIX) and rows == []

    @pytest.mark.parametrize("fault", ["missing", "odd-sized", "short read"])
    def test_an_unreadable_data_file_exits_1_naming_it(self, synth_dataset, tmp_path, monkeypatch, fault):
        """A short read is a file that shrank after its size was taken: each block comes back one sample short."""
        config_path, data_dir = synth_dataset
        data = data_dir / "session.sigmf-data"
        if fault == "missing":
            data.unlink()
        elif fault == "odd-sized":
            data.write_bytes(data.read_bytes()[:-3])
        else:
            fromfile = np.fromfile
            monkeypatch.setattr(np, "fromfile", lambda fh, dtype, count: fromfile(fh, dtype, count)[:-1])
        code, err = run_main(["pipeline", "--config", config_path, "--dataset", str(data_dir),
                              "--out", str(tmp_path / "feat")])
        assert code == 1, err
        assert str(data) in err and "every session failed" in err and "Traceback" not in err
        assert not (tmp_path / "feat").exists()

    def test_empty_dataset_dir_exits_2(self, tmp_path):
        config_path = write_config(tmp_path, base_config())
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["pipeline", "--config", config_path, "--dataset", str(empty),
                     "--out", str(tmp_path / "f")]) == 2


@pytest.fixture()
def enrolled(tmp_path):
    """Synthesize a larger session, run the pipeline, enroll both devices."""
    config = base_config(n_bursts=40)
    config_path = write_config(tmp_path, config)
    data_dir = tmp_path / "data"
    feat_dir = tmp_path / "feat"
    store_dir = tmp_path / "store"
    assert main(["synth", "--config", config_path, "--out", str(data_dir)]) == 0
    assert main(["pipeline", "--config", config_path, "--dataset", str(data_dir),
                 "--out", str(feat_dir)]) == 0
    assert main(["enroll", "--config", config_path, "--features",
                 str(feat_dir / "features.csv"), "--out", str(store_dir)]) == 0
    return config_path, feat_dir / "features.csv", store_dir / "fingerprints.json"


class TestEnrollVerifyEvaluate:
    def test_enroll_creates_store_with_both_devices(self, enrolled):
        _, _, store_path = enrolled
        doc = json.loads(store_path.read_text())
        ids = {fp["device_id"] for fp in doc["fingerprints"]}
        assert ids == {"alpha", "beta"}

    def test_verify_own_probes_accepted(self, enrolled, tmp_path):
        config_path, features_path, store_path = enrolled
        out = tmp_path / "dec"
        assert main(["verify", "--features", str(features_path), "--store", str(store_path),
                     "--claim", "alpha", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "decisions.csv")
        assert header == ["session", "roi_start", "claimed_id", "squared_distance",
                          "threshold", "accepted"]
        assert all(row[2] == "alpha" for row in rows)

    def test_verify_unknown_claim_nonzero_exit(self, enrolled, tmp_path, capsys):
        _, features_path, store_path = enrolled
        code = main(["verify", "--features", str(features_path), "--store", str(store_path),
                     "--claim", "ghost", "--out", str(tmp_path / "d")])
        assert code == 2  # a usage error, naming the option
        assert "--claim 'ghost' is not enrolled" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_evaluate_emits_metrics_and_roc(self, enrolled, tmp_path):
        _, features_path, store_path = enrolled
        out = tmp_path / "metrics"
        assert main(["evaluate", "--features", str(features_path), "--store", str(store_path),
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["eer"] <= 1.0
        assert metrics["n_genuine"] > 0 and metrics["n_impostor"] > 0
        header, rows = read_csv_rows(out / "roc.csv")
        assert header == ["far", "frr", "threshold"]
        assert len(rows) >= 2
        # Two well-separated synthetic emitters: verification should be easy.
        assert metrics["eer"] <= 0.1


class TestTune:
    def tune_config(self, grid_gains, grid_bws, strategy="exhaustive", budget=None):
        config = base_config(n_bursts=6)
        config["tuning"] = {
            "gain_db_values": grid_gains,
            "filter_bw_hz_values": grid_bws,
            "strategy": strategy,
            "max_rounds": 6,
            "objective": {"clip_weight": 0.5, "no_roi_penalty": 100.0},
        }
        if budget is not None:
            config["tuning"]["budget"] = budget
        return config

    def test_single_point_grid(self, tmp_path):
        config = self.tune_config([6.0], [0.4 * FS])
        out = tmp_path / "tune"
        assert main(["tune", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "trace.csv")
        assert len(rows) == 1
        best = json.loads((out / "best_config.json").read_text())
        assert best["gain_db"] == 6.0

    def test_exhaustive_5x5(self, tmp_path):
        gains = [-10.0, 0.0, 10.0, 20.0, 30.0]
        bws = [0.1 * FS, 0.2 * FS, 0.3 * FS, 0.4 * FS, 0.5 * FS]
        config = self.tune_config(gains, bws)
        out = tmp_path / "tune"
        assert main(["tune", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "trace.csv")
        assert len(rows) == 25
        best = json.loads((out / "best_config.json").read_text())
        objectives = [float(r[3]) for r in rows]
        assert best["objective"] == max(objectives)

    def test_each_evaluation_measures_its_acquisition_once(self, tmp_path, monkeypatch):
        """acquisition_metrics runs once per trace row: the plant's one measurement fills the whole step."""
        import radiofp.tuning

        calls = []
        measure = radiofp.tuning.acquisition_metrics
        monkeypatch.setattr(radiofp.tuning, "acquisition_metrics", lambda *a: calls.append(a) or measure(*a))
        config = self.tune_config([-10.0, 0.0, 10.0], [0.2 * FS, 0.4 * FS])
        out = tmp_path / "tune"
        assert main(["tune", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "trace.csv")
        assert len(rows) == 6
        assert len(calls) == len(rows)

    def test_an_evaluation_allocates_no_capture(self, tmp_path, monkeypatch):
        """Each grid point streams the noisy capture through the receiver into the |z|^2 and the power track that
        tune allocated once: an evaluation's tracemalloc peak is a few blocks, under 0.1x the complex128 capture
        (an acquired copy of it would be 1x)."""
        import radiofp.cli

        n = 2 ** 20
        config = self.tune_config([-10.0, 10.0], [0.2 * FS, 0.4 * FS])
        config["schedule"]["session_duration_s"] = n / FS
        peaks, real_tune = [], radiofp.cli.tune

        def measuring_tune(plant, grid, **kwargs):
            def measured(rx_config):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    step = plant(rx_config)
                    peaks.append(tracemalloc.get_traced_memory()[1] - before)
                finally:
                    tracemalloc.stop()
                return step

            return real_tune(measured, grid, **kwargs)

        monkeypatch.setattr(radiofp.cli, "tune", measuring_tune)
        assert main(["tune", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "tune")]) == 0
        assert len(peaks) == 4
        assert max(peaks) <= 0.1 * n * np.dtype(np.complex128).itemsize

    def test_trace_matches_noise_drawn_per_evaluation(self, tmp_path):
        """Drawing the front-end noise once per tune gives the trace of drawing it per evaluation."""
        gains, bws = [-10.0, 0.0, 10.0], [0.2 * FS, 0.4 * FS]
        config = self.tune_config(gains, bws)
        config["receiver"]["frontend_noise_power"] = 1e-3
        out = tmp_path / "tune"
        assert main(["tune", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0

        parsed = parse(config, EXPERIMENT)
        schedule, profiles = build_schedule(parsed["schedule"], parsed["profiles"], "schedule")
        seeds = parsed["seeds"]
        rendered, truth = render_session(schedule, profiles, FS, 16, seeds.render)
        received = propagate(rendered, truth, parsed["channel"], seeds.channel)
        params = ObjectiveParams(**config["tuning"]["objective"])

        def plant(rx_config):
            """Each grid point's capture acquired whole, its |z|^2 and the rail rule's clipping ratio taken from it."""
            acquired = acquire(received, rx_config, seeds.frontend)
            rois = detect_bursts(acquired, parsed["detector"])
            z, limit = acquired.samples, rx_config.full_scale - rx_config.full_scale * 1e-9
            clip = float(np.mean((np.abs(z.real) >= limit) | (np.abs(z.imag) >= limit)))
            return objective(np.square(np.abs(z)), rois, clip, params)

        trace = tune(plant, TuningGrid(tuple(gains), tuple(bws)), config_template=parsed["receiver"])
        write_trace_csv(trace, tmp_path / "expected.csv")
        assert (out / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert all(step.n_rois > 0 for step in trace.steps)
        best = json.loads((out / "best_config.json").read_text())
        assert best["frontend_noise_power"] == 1e-3

    def test_empty_grid_exits_2(self, tmp_path):
        config = self.tune_config([], [0.4 * FS])
        assert main(["tune", "--config", write_config(tmp_path, config),
                     "--out", str(tmp_path / "t")]) == 2

    def test_missing_tuning_section_exits_2(self, tmp_path):
        config = base_config()
        assert main(["tune", "--config", write_config(tmp_path, config),
                     "--out", str(tmp_path / "t")]) == 2


# --- malformed input: exit 2 naming the field, never a traceback ----------------

def setting(*path, value=None, delete=False):
    """A config edit that sets (or deletes) the field at `path`."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        if delete:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value
    return edit


def edit_json(name, edit):
    def apply(root):
        path = root / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return apply


def edit_csv(edit):
    def apply(root):
        header, rows = read_csv_rows(root / "features.csv")
        edit(header, rows)
        with open(root / "features.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
    return apply


def truncate_store(root):
    path = root / "fingerprints.json"
    path.write_text(path.read_text()[:100])


def negate_covariance(doc):
    cov = doc["fingerprints"][0]["covariance"]
    doc["fingerprints"][0]["covariance"] = [[-v for v in row] for row in cov]


def outgrow_catalog(doc):
    """Eight selection scores more than the table has features, and a kept index among them."""
    fp = doc["fingerprints"][0]
    fp["selection_scores"] += [1.0] * 8
    fp["kept_indices"][-1] = 39


def set_cell(column, value):
    def edit(header, rows):
        rows[1][header.index(column)] = value
    return edit


def latin1_label(line):
    """Give row `line` of features.csv a Latin-1 label, which is not UTF-8, past the decoder's first 8 KiB chunk."""
    def apply(root):
        path = root / "features.csv"
        lines = path.read_bytes().split(b"\n")
        assert sum(len(text) + 1 for text in lines[:line - 1]) > 8192
        cells = lines[line - 1].split(b",")
        cells[2] = "café".encode("latin-1")
        lines[line - 1] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
    return apply


def swap_columns(header, rows):
    a, b = header.index("amp_mean"), header.index("cfo_est_hz")
    for row in [header] + rows:
        row[a], row[b] = row[b], row[a]


def drop_sample_count(doc):
    del doc["annotations"][0]["core:sample_count"]


def command_argv(command, root):
    config, out = str(root / "config.json"), str(root / "out")
    features, store = str(root / "features.csv"), str(root / "fingerprints.json")
    return {
        "synth": ["synth", "--config", config, "--out", out],
        "pipeline": ["pipeline", "--config", config, "--dataset", str(root / "data"), "--out", out],
        "enroll": ["enroll", "--config", config, "--features", features, "--out", out],
        "evaluate": ["evaluate", "--features", features, "--store", store, "--out", out],
        "verify": ["verify", "--features", features, "--store", store, "--claim", "alpha",
                   "--out", out],
        "tune": ["tune", "--config", config, "--out", out],
    }[command]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """config.json, data/, features.csv and fingerprints.json from one good run."""
    root = tmp_path_factory.mktemp("workspace")
    config = base_config(n_bursts=40)
    config["tuning"] = {"gain_db_values": [0.0], "filter_bw_hz_values": [0.4 * FS]}
    write_config(root, config)
    for command in ("synth", "pipeline", "enroll"):
        argv = command_argv(command, root)
        argv[argv.index("--out") + 1] = str(root / "data" if command == "synth" else root)
        assert main(argv) == 0
    return root


# Every probe: (command, config edit, file edit, text stderr must contain).
PROBES = {
    "tap-without-gain": ("synth", setting("channel", "multipath_taps", value=[[0]]), None,
                         "channel.multipath_taps[0]"),
    "sps-not-a-number": ("synth", setting("samples_per_symbol", value="x"), None,
                         "samples_per_symbol"),
    "window-not-a-number": ("pipeline", setting("detector", "window", value="abc"), None,
                            "detector.window"),
    "profiles-as-object": ("synth", lambda c: c.update(profiles={"alpha": c["profiles"][0]}),
                           None, "profiles"),
    "negative-seed": ("synth", setting("seeds", "render", value=-1), None, "seeds.render"),
    "truncated-store": ("verify", None, truncate_store, "fingerprints.json"),
    "covariance-not-pd": ("evaluate", None, edit_json("fingerprints.json", negate_covariance),
                          "fingerprints[0].covariance"),
    "scores-outgrow-catalog": ("evaluate", None, edit_json("fingerprints.json", outgrow_catalog),
                               "fingerprints[0].selection_scores"),
    "claimed-scores-outgrow-catalog": ("verify", None, edit_json("fingerprints.json", outgrow_catalog),
                                       "fingerprints[0].selection_scores"),
    "empty-store": ("evaluate", None, edit_json("fingerprints.json", setting("fingerprints", value=[])),
                    "need both genuine and impostor scores"),
    "csv-cell-not-a-number": ("evaluate", None, edit_csv(set_cell("cfo_est_hz", "abc")),
                              "row 3, column 'cfo_est_hz'"),
    "csv-roi-index-not-a-number": ("verify", None, edit_csv(set_cell("roi_index", "not-a-number")),
                                   "row 3, column 'roi_index'"),
    "csv-negative-start-sample": ("verify", None, edit_csv(set_cell("start_sample", "-100")),
                                  "row 3, column 'start_sample'"),
    "csv-zero-length": ("evaluate", None, edit_csv(set_cell("length", "0")),
                        "row 3, column 'length': '0' is not an integer >= 1"),
    "csv-not-utf8": ("enroll", None, latin1_label(30), "features.csv, row 30: not UTF-8 text"),
    "csv-cell-over-field-limit": ("verify", None, edit_csv(set_cell("label", "x" * 131_073)),
                                  "features.csv, row 3: field larger than field limit"),
    "annotation-without-count": ("pipeline", None,
                                 edit_json("data/session.sigmf-meta", drop_sample_count),
                                 "annotations[0].core:sample_count"),
    "window-below-4": ("pipeline", setting("detector", "window", value=2), None,
                       "detector.window"),
    "wpd-depth-9": ("pipeline", setting("extraction", "wpd_depth", value=9), None,
                    "extraction.wpd_depth"),
    "keep-33-features": ("enroll", setting("enrollment", "keep_features", value=33), None,
                         "enrollment.keep_features"),
    "adc-bits-1": ("synth", setting("receiver", "adc_bits", value=1), None, "receiver.adc_bits"),
    "unknown-strategy": ("tune", setting("tuning", "strategy", value="anneal"), None,
                         "tuning.strategy"),
    "zero-budget": ("tune", setting("tuning", "budget", value=0), None, "tuning.budget"),
    "filter-at-sample-rate": ("synth", setting("receiver", "filter_bw_hz", value=FS), None,
                              "receiver.filter_bw_hz"),
    "burst-overruns-session": ("synth", setting("schedule", "session_duration_s", value=0.2),
                               None, "schedule.entries[20]"),
    "session-over-cap": ("synth", setting("schedule", "session_duration_s", value=1e5), None,
                         "schedule.session_duration_s"),
    "tuned-session-over-cap": ("tune", setting("schedule", "session_duration_s", value=1e5), None,
                               "schedule.session_duration_s"),
    "unknown-detector-field": ("pipeline", setting("detector", "bogus", value=1), None,
                               "detector.bogus"),
    "unknown-enrollment-field": ("enroll", setting("enrollment", "bogus", value=1), None,
                                 "enrollment.bogus"),
    "unknown-tuning-field": ("tune", setting("tuning", "bogus", value=1), None, "tuning.bogus"),
    "unknown-top-level-field": ("synth", setting("bogus", value=1), None, "'bogus'"),
    "permuted-feature-table": ("evaluate", None, edit_csv(swap_columns), "features.csv"),
    "negative-capture-frequency": ("pipeline", None, edit_json(
        "data/session.sigmf-meta", setting("captures", 0, "core:frequency", value=-5)),
        "captures[0].core:frequency"),
    "zero-sample-rate": ("pipeline", None, edit_json(
        "data/session.sigmf-meta", setting("global", "core:sample_rate", value=0)),
        "global.core:sample_rate"),
    # Values whose arithmetic overflowed, divided by zero or allocated without bound.
    "snr-db-minus-1e308": ("synth", setting("channel", "snr_db", value=-1e308), None, "channel.snr_db"),
    "snr-db-1e308": ("synth", setting("channel", "snr_db", value=1e308), None, "channel.snr_db"),
    "path-loss-db-1e308": ("synth", setting("channel", "path_loss_db", value=1e308), None,
                           "channel.path_loss_db"),
    "gain-db-8000": ("synth", setting("receiver", "gain_db", value=8000), None, "receiver.gain_db"),
    "tuned-gain-db-8000": ("tune", setting("tuning", "gain_db_values", value=[0.0, 8000]), None,
                           "tuning.gain_db_values[1]"),
    "open-threshold-db-8000": ("pipeline", setting("detector", "open_threshold_db", value=8000), None,
                               "detector.open_threshold_db"),
    "start-time-1e308": ("synth", setting("schedule", "entries", 0, "start_time_s", value=1e308), None,
                         "schedule.entries[0] ('alpha' at t=1e+308s) overruns"),
    "sps-1e12": ("synth", setting("samples_per_symbol", value=10 ** 12), None,
                 "samples_per_symbol 1000000000000"),
    "window-over-session": ("pipeline", setting("detector", "window", value=10 ** 8), None,
                            "detector.window"),
    "tuned-window-over-session": ("tune", setting("detector", "window", value=10 ** 8), None,
                                  "detector.window"),
    # Range checks of the library records, reached through the config and the store.
    "empty-kept-indices": ("evaluate", None, edit_json(
        "fingerprints.json", setting("fingerprints", 0, "kept_indices", value=[])),
        "fingerprints[0].kept_indices must be non-empty"),
    "kept-index-99": ("evaluate", None, edit_json(
        "fingerprints.json", setting("fingerprints", 0, "kept_indices", -1, value=99)),
        "fingerprints[0].kept_indices out of catalog range"),
    "zero-max-rounds": ("tune", setting("tuning", "max_rounds", value=0), None, "tuning.max_rounds"),
    "tap-delay-minus-1": ("synth", setting("channel", "multipath_taps", value=[[0, 1, 0], [-1, 0.5, 0]]), None,
                          "channel.multipath_taps delays must be >= 0"),
    "min-length-0": ("pipeline", setting("detector", "min_length", value=0), None, "detector.min_length"),
    "merge-gap-minus-1": ("pipeline", setting("detector", "merge_gap", value=-1), None, "detector.merge_gap"),
    # A non-positive sample rate was blamed on receiver.filter_bw_hz or detector.window.
    "sample-rate-hz-0": ("synth", setting("sample_rate_hz", value=0), None,
                         "sample_rate_hz must be a finite number > 0"),
    "tuned-sample-rate-hz-minus-1e5": ("tune", setting("sample_rate_hz", value=-1e5), None,
                                       "sample_rate_hz must be a finite number > 0"),
}


@pytest.mark.parametrize("command, edit_config, edit_files, expected",
                         list(PROBES.values()), ids=list(PROBES))
def test_bad_input_exits_2_naming_the_field(workspace, tmp_path, capsys,
                                            command, edit_config, edit_files, expected):
    shutil.copytree(workspace, tmp_path, dirs_exist_ok=True)
    if edit_config:
        edit_json("config.json", edit_config)(tmp_path)
    if edit_files:
        edit_files(tmp_path)
    code = main(command_argv(command, tmp_path))
    err = capsys.readouterr().err
    assert code == 2, err
    assert expected in err


def test_session_over_cap_exits_before_allocating(workspace, tmp_path):
    """10^10 samples would need 149 GiB for one capture; the parser stops it first."""
    shutil.copytree(workspace, tmp_path, dirs_exist_ok=True)
    edit_json("config.json", setting("schedule", "session_duration_s", value=1e5))(tmp_path)
    tracemalloc.start()
    try:
        code, err = run_main(command_argv("synth", tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "above the cap of 134217728" in err
    assert peak < 2 ** 24


def test_unreadable_data_file_exits_1(workspace, tmp_path, capsys):
    shutil.copytree(workspace, tmp_path, dirs_exist_ok=True)
    data = tmp_path / "data" / "session.sigmf-data"
    data.write_bytes(data.read_bytes()[:7])
    assert main(command_argv("pipeline", tmp_path)) == 1
    assert "session.sigmf-data" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_out_that_is_not_a_directory_exits_2_before_any_work(workspace, tmp_path, capsys, command, below):
    """--out naming a file, or a path under one, exited 1 ('[Errno 17] File exists') once the work was done."""
    shutil.copytree(workspace, tmp_path, dirs_exist_ok=True)
    (tmp_path / "out").write_text("a file")
    argv = command_argv(command, tmp_path)
    argv[argv.index("--out") + 1] = str(tmp_path / "out" / below)
    tree = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"--out '{tmp_path / 'out' / below}'" in err and "is not a directory" in err
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == tree


# --- property: one field at a time of a small README-style config ----------------

def small_config():
    return {
        "sample_rate_hz": FS,
        "samples_per_symbol": 16,
        "seeds": {"render": 11, "channel": 22, "frontend": 33},
        "profiles": [{"emitter_id": "alpha", "cfo_hz": 400.0, "iq_gain_imbalance": 1.0,
                      "iq_phase_imbalance_rad": 0.0, "phase_noise_linewidth_hz": 5.0,
                      "pa_a1": [1.0, 0.0], "pa_a3": [-0.03, 0.0],
                      "ramp_up_samples": 40, "ramp_down_samples": 40}],
        "schedule": {"session_duration_s": 0.02,
                     "entries": [{"emitter_id": "alpha", "start_time_s": 0.005,
                                  "payload_bits": [1] * 16}]},
        "channel": {"snr_db": 25.0, "multipath_taps": [[0, 1.0, 0.0]], "path_loss_db": 3.0},
        "receiver": {"filter_bw_hz": 40000.0, "gain_db": 0.0, "adc_bits": 12,
                     "full_scale": 1.0, "frontend_noise_power": 1e-08},
        "detector": {"window": 64, "open_threshold_db": 10.0, "close_threshold_db": 6.0,
                     "min_length": 64, "merge_gap": 64},
        "extraction": {"wpd_depth": 4},
        "enrollment": {"ridge_lambda": 0.001, "keep_features": 10},
        "tuning": {"gain_db_values": [0.0, 10.0], "filter_bw_hz_values": [20000.0, 40000.0],
                   "strategy": "coordinate_descent", "budget": 2, "max_rounds": 2,
                   "objective": {"clip_weight": 0.5, "no_roi_penalty": 100.0}},
    }


def small_feature_table():
    names = catalog_names(ExtractionConfig(4))
    rng = np.random.default_rng(7)
    rows = [[f"s{d}", r, f"dev-{d}", 100 * r, 256] + list(rng.normal(d, 1.0, len(names)))
            for d in range(2) for r in range(40)]
    out = io.StringIO()
    csv.writer(out).writerows([list(FEATURE_CSV_PREFIX + names)] + rows)
    return out.getvalue()


FEATURE_TABLE = small_feature_table()

# (field path, a value of the wrong type, an out-of-domain value or None, required?)
FIELDS = [
    (("sample_rate_hz",), "fast", 0.0, True),
    (("samples_per_symbol",), "x", 1, True),
    (("seeds", "render"), "r", -1, True),
    (("profiles", 0, "cfo_hz"), "x", None, True),
    (("profiles", 0, "iq_gain_imbalance"), [1.0], 0.0, True),
    (("profiles", 0, "pa_a1"), [1.0], [0.0, 0.0], True),
    (("profiles", 0, "ramp_up_samples"), 1.5, -1, True),
    (("schedule", "session_duration_s"), "long", 0.0, True),
    (("schedule", "entries", 0, "payload_bits"), "1101", [2], True),
    (("schedule", "entries", 0, "start_time_s"), None, -1.0, True),
    (("channel", "multipath_taps"), [[0]], [[1, 1.0, 0.0]], True),
    (("channel", "path_loss_db"), True, -3.0, True),
    (("receiver", "filter_bw_hz"), "wide", FS, True),
    (("receiver", "adc_bits"), 12.5, 1, True),
    (("detector", "window"), "abc", 2, False),
    (("extraction", "wpd_depth"), "4", 9, False),
    (("enrollment", "ridge_lambda"), "small", -1.0, False),
    (("enrollment", "keep_features"), "all", 0, False),
    (("tuning", "strategy"), 3, "anneal", False),
    (("tuning", "budget"), "many", 0, False),
    (("tuning", "gain_db_values"), {}, [10.0, 0.0], True),
]


def dotted(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def test_small_config_runs_clean(tmp_path):
    (tmp_path / "features.csv").write_text(FEATURE_TABLE)
    write_config(tmp_path, small_config())
    for command in ("synth", "enroll", "tune"):
        assert run_main(command_argv(command, tmp_path)) == (0, "")


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FIELDS),
       kind=st.sampled_from(["wrong type", "out of domain", "missing", "unknown", "truncated"]),
       cut=st.floats(0.0, 1.0, exclude_max=True))
def test_one_bad_field_exits_2_naming_it(field, kind, cut):
    """main() never raises; it exits 2 and names the field (or the file, if truncated)."""
    path, wrong_type, out_of_domain, required = field
    assume(kind != "out of domain" or out_of_domain is not None)
    assume(kind != "missing" or required)
    config = small_config()
    if kind == "truncated":
        text = json.dumps(config)
        text, expected, command = text[:int(cut * len(text))], "config.json", "synth"
    else:
        if kind == "unknown":
            setting(*path[:-1], "bogus", value=1)(config)
            expected = dotted(path[:-1] + ("bogus",))
        else:
            value = {"wrong type": wrong_type, "out of domain": out_of_domain}.get(kind)
            setting(*path, value=value, delete=kind == "missing")(config)
            expected = dotted(path)
        text = json.dumps(config)
        command = {"enrollment": "enroll", "tuning": "tune"}.get(path[0], "synth")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(text)
        (root / "features.csv").write_text(FEATURE_TABLE)
        code, err = run_main(command_argv(command, root))
    assert code == 2, err
    assert expected in err, err


# --- property: one field at a time of a synthesized session's SigMF meta ----------

# (field path, a value of the wrong type, an out-of-domain value or None, required?).
# core:datatype is left out: an unsupported datatype is a runtime failure (exit 1).
META_FIELDS = [
    (("global",), [], None, True),
    (("global", "core:sample_rate"), "fast", 0.0, True),
    (("global", "core:description"), 5, None, False),
    (("global", "core:version"), 1.0, None, False),
    (("global", "workbench:recording_id"), [], None, False),
    (("global", "workbench:sample_count"), 1.5, -1, False),
    (("captures",), {}, None, False),
    (("captures", 0, "core:sample_start"), "0", -1, False),
    (("captures", 0, "core:frequency"), "x", -5.0, False),
    (("captures", 0, "core:datetime"), 0, None, False),
    (("annotations",), "x", None, False),
    (("annotations", 0, "core:sample_start"), 1.5, -1, True),
    (("annotations", 0, "core:sample_count"), "n", 0, True),
    (("annotations", 0, "core:label"), 7, None, False),
    (("annotations", 0, "core:comment"), None, None, False),
]


@pytest.fixture(scope="module")
def small_session(tmp_path_factory):
    """(config text, data bytes, meta document) of the small config's synthesized session."""
    root = tmp_path_factory.mktemp("small")
    write_config(root, small_config())
    assert run_main(["synth", "--config", str(root / "config.json"), "--out", str(root / "data")])[0] == 0
    return ((root / "config.json").read_text(), (root / "data" / "session.sigmf-data").read_bytes(),
            json.loads((root / "data" / "session.sigmf-meta").read_text()))


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(META_FIELDS), kind=st.sampled_from(["wrong type", "out of domain", "missing"]))
def test_one_bad_meta_field_exits_2_naming_it(small_session, field, kind):
    """pipeline never raises on a bad meta field; it exits 2 and names the field."""
    path, wrong_type, out_of_domain, required = field
    assume(kind != "out of domain" or out_of_domain is not None)
    assume(kind != "missing" or required)
    config_text, data, meta = small_session
    meta = json.loads(json.dumps(meta))
    value = {"wrong type": wrong_type, "out of domain": out_of_domain}.get(kind)
    setting(*path, value=value, delete=kind == "missing")(meta)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(config_text)
        (root / "data").mkdir()
        (root / "data" / "session.sigmf-data").write_bytes(data)
        (root / "data" / "session.sigmf-meta").write_text(json.dumps(meta))
        code, err = run_main(command_argv("pipeline", root))
    assert code == 2, err
    assert dotted(path) in err, err


# --- property: one field at a time of a saved fingerprint store ------------------

@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """The store `enroll` writes for the small feature table."""
    root = tmp_path_factory.mktemp("store")
    (root / "features.csv").write_text(FEATURE_TABLE)
    write_config(root, small_config())
    argv = command_argv("enroll", root)
    argv[argv.index("--out") + 1] = str(root)
    assert run_main(argv) == (0, "")
    return root / "fingerprints.json"


def reversed_list(value):
    return value[::-1]


def asymmetric(cov):
    return [[v + (i < j) for j, v in enumerate(row)] for i, row in enumerate(cov)]


def not_spd(cov):
    return [[-v for v in row] for row in cov]


# (field path below fingerprints[k] or at the top level, a value of the wrong type,
# an out-of-domain value or a function of the old value or None, numeric?, required?)
STORE_FIELDS = [
    (("catalog_names",), "names", reversed_list, False, False),
    (("fingerprints",), {}, None, False, True),
    (("device_id",), 5, None, False, True),
    (("catalog_version",), [], "fc1-d3", False, True),
    (("kept_indices",), "0,1", reversed_list, False, True),
    (("selection_scores",), "s", lambda scores: scores + [1.0] * 8, True, True),
    (("mean",), [["m"]], lambda mean: mean[:-1], True, True),
    (("covariance",), [[1.0, "c"]], asymmetric, True, True),
    (("ridge_lambda",), "r", -1.0, True, True),
    (("threshold",), "t", 0.0, True, True),
    (("n_enrolled",), 1.5, 0, False, True),
]
TOP_LEVEL = {"catalog_names", "fingerprints"}


def mutated_store(text, path, kind, value):
    """The store text with the field at `path` changed by one kind of mutation."""
    doc = json.loads(text)
    if kind == "unknown":
        setting(*path[:-1], "bogus", value=1)(doc)
        return json.dumps(doc), dotted(path[:-1] + ("bogus",))
    node = doc
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    if kind == "non-finite" and isinstance(old, list):
        target = old
        while isinstance(target[0], list):
            target = target[0]
        target[0] = value
        new = old
    elif kind == "not SPD":
        new = not_spd(old)
    else:
        new = value(old) if callable(value) else value  # a non-finite scalar lands here too
    setting(*path, value=new, delete=kind == "missing")(doc)
    return json.dumps(doc), dotted(path)


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(STORE_FIELDS), device=st.sampled_from([0, 1]),
       kind=st.sampled_from(["wrong type", "out of domain", "non-finite", "missing", "unknown",
                             "not SPD", "truncated"]),
       bad=st.sampled_from([float("nan"), float("inf"), -float("inf")]),
       cut=st.floats(0.0, 1.0, exclude_max=True))
def test_one_bad_store_field_exits_2_naming_it(small_store, field, device, kind, bad, cut):
    """evaluate and verify never raise on a bad store; they exit 2 and name the field."""
    store_text = small_store.read_text()
    name, wrong_type, out_of_domain, numeric, required = field
    assume(kind != "out of domain" or out_of_domain is not None)
    assume(kind != "missing" or required)
    assume(kind != "non-finite" or numeric)
    assume(kind != "not SPD" or name == ("covariance",))
    path = name if name[0] in TOP_LEVEL else ("fingerprints", device) + name
    if kind == "truncated":
        body = store_text.rstrip()  # cutting only the trailing newline leaves a valid store
        text, expected = body[:int(cut * len(body))], "fingerprints.json"
    else:
        value = {"wrong type": wrong_type, "out of domain": out_of_domain, "non-finite": bad}.get(kind)
        text, expected = mutated_store(store_text, path, kind, value)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "features.csv").write_text(FEATURE_TABLE)
        (root / "fingerprints.json").write_text(text)
        for command in ("evaluate", "verify"):
            argv = command_argv(command, root)
            if command == "verify":
                argv[argv.index("--claim") + 1] = "dev-0"
            code, err = run_main(argv)
            assert code == 2, err
            assert expected in err, err
            assert "Traceback" not in err


# --- property: one cell, row or header change at a time of a feature table --------

TABLE_HEADER, *TABLE_ROWS = list(csv.reader(io.StringIO(FEATURE_TABLE)))
INTEGER_COLUMNS = [TABLE_HEADER.index(name) for name in ("roi_index", "start_sample", "length")]
NUMERIC_COLUMNS = INTEGER_COLUMNS + list(range(len(FEATURE_CSV_PREFIX), len(TABLE_HEADER)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["not a number", "non-finite", "float in integer column",
                             "negative integer", "short row", "long row", "header"]),
       row=st.integers(0, len(TABLE_ROWS) - 1),
       col=st.sampled_from(NUMERIC_COLUMNS), int_col=st.sampled_from(INTEGER_COLUMNS),
       header_col=st.integers(0, len(TABLE_HEADER) - 1),
       text=st.sampled_from(["abc", "", "1e", "--1"]),
       bad=st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]))
def test_one_bad_feature_table_change_exits_2_naming_it(small_store, kind, row, col, int_col,
                                                        header_col, text, bad):
    """enroll, evaluate and verify never raise on a bad table; they exit 2 naming the
    row and column, the row for a wrong-length row, or the file for a bad header.
    A negative integer cell is out of range."""
    header, rows = list(TABLE_HEADER), [list(r) for r in TABLE_ROWS]
    if kind == "header":
        header[header_col] += "x"
        expected = "features.csv"
    elif kind in ("short row", "long row"):
        rows[row] = rows[row][:-1] if kind == "short row" else rows[row] + ["1"]
        expected = f"row {row + 2}: "
    else:
        col = int_col if kind in ("float in integer column", "negative integer") else col
        rows[row][col] = {"not a number": text, "non-finite": bad,
                          "negative integer": "-100"}.get(kind, "1.5")
        expected = f"row {row + 2}, column '{header[col]}'"
    table = io.StringIO()
    csv.writer(table).writerows([header] + rows)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "features.csv").write_text(table.getvalue())
        (root / "config.json").write_text(json.dumps(small_config()))
        shutil.copy(small_store, root / "fingerprints.json")
        for command in ("enroll", "evaluate", "verify"):
            argv = command_argv(command, root)
            if command == "verify":
                argv[argv.index("--claim") + 1] = "dev-0"
            code, err = run_main(argv)
            assert code == 2, (command, err)
            assert expected in err, (command, err)
            assert "Traceback" not in err


def test_store_round_trip_is_byte_identical(small_store, tmp_path):
    """save(load(save(store))) gives the same bytes: the cached whitening factor is not persisted."""
    store = load_fingerprint_store(small_store)
    save_fingerprint_store(list(store.values()), tmp_path / "again.json",
                           catalog_names=json.loads(small_store.read_text())["catalog_names"])
    assert (tmp_path / "again.json").read_bytes() == small_store.read_bytes()


def test_header_only_feature_table_exits_2(small_store, tmp_path):
    (tmp_path / "features.csv").write_text(FEATURE_TABLE.splitlines(keepends=True)[0])
    shutil.copy(small_store, tmp_path / "fingerprints.json")
    code, err = run_main(command_argv("evaluate", tmp_path))
    assert code == 2 and "has no rows" in err, err


def test_table_without_labeled_rows_exits_2(tmp_path):
    rows = [row[:2] + [""] + row[3:] for row in TABLE_ROWS]
    with open(tmp_path / "features.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([TABLE_HEADER] + rows)
    write_config(tmp_path, small_config())
    code, err = run_main(command_argv("enroll", tmp_path))
    assert code == 2 and "no labeled rows" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, expected", [
    (lambda doc: doc["fingerprints"][0]["covariance"][0].pop(), "fingerprints[0].covariance"),
    (lambda doc: doc["fingerprints"].__setitem__(1, doc["fingerprints"][0]), "duplicate device_id 'dev-0'"),
])
def test_a_ragged_covariance_or_a_repeated_device_exits_2_naming_it(small_store, tmp_path, edit, expected):
    doc = json.loads(small_store.read_text())
    edit(doc)
    (tmp_path / "fingerprints.json").write_text(json.dumps(doc))
    (tmp_path / "features.csv").write_text(FEATURE_TABLE)
    for command in ("evaluate", "verify"):
        argv = command_argv(command, tmp_path)
        if command == "verify":
            argv[argv.index("--claim") + 1] = "dev-0"
        code, err = run_main(argv)
        assert code == 2 and expected in err, (command, err)
        assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_but_finite_probe_is_rejected_not_an_error(small_store, tmp_path):
    """A finite feature row so far away that d^2 overflows scores inf and is rejected; every
    decisions.csv row holds its probe's per-pair d^2, within the README's 1e-12 relative, and the
    exact accept decision of that d^2."""
    header, *rows = csv.reader(io.StringIO(FEATURE_TABLE))
    rows[0][len(FEATURE_CSV_PREFIX):] = ["1e200"] * (len(header) - len(FEATURE_CSV_PREFIX))
    with open(tmp_path / "features.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    shutil.copy(small_store, tmp_path / "fingerprints.json")
    argv = command_argv("verify", tmp_path)
    argv[argv.index("--claim") + 1] = "dev-0"
    assert run_main(argv) == (0, "")
    _, decisions = read_csv_rows(tmp_path / "out" / "decisions.csv")
    assert len(decisions) == len(rows)
    assert (decisions[0][3], decisions[0][5]) == ("inf", "0")
    table = _read_feature_table(str(tmp_path / "features.csv"))
    fp = load_fingerprint_store(small_store, table.names)["dev-0"]
    with np.errstate(over="ignore"):  # the per-pair reference, |W (x[idx] - mu)|^2, overflows on row 0
        expected = [float(np.dot(y, y)) for y in (np.dot(fp.whitening, x[fp.selection.index] - fp.mean)
                                                  for x in table.values)]
    assert [row[:3] + row[4:] for row in decisions] == [
        [session, str(start), "dev-0", repr(fp.threshold), str(int(d2 <= fp.threshold))]
        for session, start, d2 in zip(table.sessions, table.starts, expected)]
    np.testing.assert_allclose([float(row[3]) for row in decisions], expected, rtol=1e-12, atol=0.0)
    assert expected[0] == np.inf and any(d2 <= fp.threshold for d2 in expected)
    assert run_main(command_argv("evaluate", tmp_path)) == (0, "")


def test_cli_import_loads_no_scipy():
    src = str(Path(__import__("radiofp").__file__).parent.parent)
    code = ("import sys, radiofp.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


def test_main_turns_off_numpy_huge_page_advice_unless_the_env_decides(tmp_path, monkeypatch):
    """A huge page backs an advised array only when the machine has one free, so the advice makes peak RSS vary."""
    from radiofp.cli import _set_madvise_hugepage
    argv = ["tune", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]
    before = _set_madvise_hugepage(True)
    try:
        monkeypatch.delenv("NUMPY_MADVISE_HUGEPAGE", raising=False)
        assert main(argv) == 2
        assert _set_madvise_hugepage(True) is False
        monkeypatch.setenv("NUMPY_MADVISE_HUGEPAGE", "1")
        assert main(argv) == 2
        assert _set_madvise_hugepage(True) is True
    finally:
        _set_madvise_hugepage(before)


def test_a_numpy_without_the_private_huge_page_switch_still_runs_every_command(tmp_path):
    """The switch is a private numpy name: a numpy that lacks it leaves its advice as it is, and the CLI still
    imports and runs."""
    src = str(Path(__import__("radiofp").__file__).parent.parent)
    code = ("import numpy._core.multiarray as m; del m._set_madvise_hugepage; "
            "import radiofp.cli as cli; assert cli._set_madvise_hugepage is None; "
            f"raise SystemExit(cli.main(['tune', '--config', {str(tmp_path / 'missing.json')!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 2 and "missing.json" in result.stderr, result.stderr
    assert "Traceback" not in result.stderr


# --- golden bytes: recorded from the copying stages, which the in-place stages must reproduce ----

GOLDEN_SHA256 = {
    "data/session.sigmf-data": "46e3cf5e277c7f0edc5f5ab1de90745e09f0fd3b104f43ec450a0281723e951b",
    "data/session.sigmf-meta": "88eb95eff3c58f61daf0a6991f9988e063ead8239d2b8ffe4df24305bc9b546c",
    "data/manifest.json": "33f6928b0a1f19353b3e127ec3fb7774698b496aaed4cf0b04fe0949f5fd0d59",
    "tuned/trace.csv": "bd0352298e923eec274ab932494b24ac6da2bd89619908a59c84289080f100ed",
    "tuned/best_config.json": "d7beecd1335d4e02e8fb90e6b343a58530c806ef688b1b0d20f41df66cf1c46a",
}


def test_synth_and_tune_bytes_are_golden(tmp_path):
    """The golden-features session (28 bursts, multipath, path loss, both noise sources) plus a
    six-point tune. The data holds signed zeros, so a stage that loses a -0 changes the hash."""
    config = json.loads((Path(__file__).parent / "golden_features.json").read_text())["config"]
    config["tuning"] = {"gain_db_values": [-10.0, 0.0, 10.0], "filter_bw_hz_values": [20000.0, 40000.0]}
    path = write_config(tmp_path, config)
    assert run_main(["synth", "--config", path, "--out", str(tmp_path / "data")]) == (0, "")
    assert run_main(["tune", "--config", path, "--out", str(tmp_path / "tuned")]) == (0, "")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
    parts = np.frombuffer((tmp_path / "data/session.sigmf-data").read_bytes(), dtype="<f4")
    zeros = parts == 0
    assert (zeros.sum(), np.signbit(parts[zeros]).sum()) == (606, 295)


# --- the README walk-through, as written ------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language):
    """The first ```language block after the README line `heading`."""
    text = README.read_text()
    start = text.index(f"```{language}\n", text.index(f"\n{heading}\n")) + len(language) + 4
    return text[start:text.index("```", start)]


def test_readme_walkthrough_runs_each_command(tmp_path, monkeypatch):
    """The README config and its six CLI commands, run in order from one directory: each exits 0."""
    (tmp_path / "experiment.json").write_text(readme_block("### Experiment config", "json"))
    commands = [line.split() for line in readme_block("## CLI", "bash").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["radiofp", name] for name in ("synth", "pipeline", "enroll", "verify", "evaluate", "tune")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, err = run_main(argv[1:])
        assert code == 0, (argv, err)
    assert (tmp_path / "tuned" / "best_config.json").exists()


@pytest.mark.parametrize("detector, code", [({"window": 4, "min_length": 1}, 2), (None, 0)])
def test_a_roi_too_short_for_tune_exits_2_naming_the_detector_and_the_grid_point(tmp_path, capsys, detector, code):
    """The README config whose detector lets a 7-sample ROI through exited 1 with "every ROI needs >= 8
    samples" and named no field; with no detector section (window 64) every ROI is long enough and tune runs."""
    config = json.loads(readme_block("### Experiment config", "json"))
    if detector is None:
        del config["detector"]
    else:
        config["detector"] = detector
    assert main(["tune", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "t")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert re.search(r"detector\.min_length 1 .* at tuning grid point gain_db \S+, filter_bw_hz \S+: every ROI "
                         r"needs >= 8 samples", err), err
        assert "Traceback" not in err


def test_readme_library_use_runs_against_the_exports():
    """The README "Library use" example runs as written, and the names it imports plus the ones its
    public-API paragraph lists are exactly what `radiofp` exports."""
    import radiofp

    block = readme_block("## Library use", "python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["values"].shape == (20, len(catalog_names()))
    assert namespace["d2"].shape == (1, 20)
    assert namespace["accepted"][:10].any() and not namespace["accepted"][10:].any()

    imported = re.search(r"from radiofp import \(([^)]*)\)", block).group(1)
    text = README.read_text()
    start = text.index("The public API is what `radiofp` exports")
    listed = re.findall(r"`([A-Za-z_]\w*)`", text[start:text.index("\n\n", start)])
    named = ({name.strip() for name in imported.split(",") if name.strip()} | set(listed)) - {"radiofp"}
    exported = {name for name, value in vars(radiofp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert named == exported
