"""Seeded inputs, command sequences and output checks for the benchmark workloads.

Every input is generated here from the workload seed; the radiofp program
only ever receives the files written by `generate`. The same seed gives
byte-identical files. Nothing in this module imports radiofp, so inputs can
be generated (and the benchmark can fail cleanly) without the program.

Seeds select one of `SCENARIOS` scenarios (seed mod SCENARIOS). Each scenario
has exact reference outputs recorded in reference.json, so every run is
checked against recorded values, whatever seed the caller passes.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

SCENARIOS = 16

FS = 100_000.0
SPS = 32
PAYLOAD = [1] * 64            # 2048-sample bursts
SLOT_S = 0.041                # one burst per 41 ms slot
N_EMITTERS = 10

FEATURE_PREFIX = ["session", "roi_index", "label", "start_sample", "length"]
CATALOG = (
    ["amp_mean", "amp_var", "amp_skew", "amp_kurt", "amp_peak_to_mean", "rss_db",
     "cfo_est_hz", "phase_resid_var", "phase_resid_skew", "phase_resid_kurt", "freq_var",
     "rise_time_samples", "fall_time_samples"]
    + [f"wpd_e{i:02d}" for i in range(16)]
    + ["spectral_centroid_hz", "occupied_bw_hz", "spectral_flatness"]
)

# Why each workload exists:
#
# fingerprint-session: the paper's full loop (synth -> pipeline -> enroll ->
#   evaluate -> verify) on a 600-burst, 2.46 M-sample session, the ROADMAP
#   baseline size. Features take most of pipeline_s and emitter, channel and
#   receiver most of synth_s; tuning never runs. Impairment ranges and SNR keep
#   all 600 bursts detectable and the EER above zero, so the EER check can
#   catch a feature regression.
# tune-sweep: one exhaustive tune over 5 gains x 3 bandwidths (15 evaluations)
#   on a 240-burst session. Receiver, detect, tuning and dsp.estimate_snr_db do
#   almost all the work; the per-ROI SNR reduction runs twice per evaluation.
#   Features, verify and sigmf_io never run. The top gains clip, so the work
#   per evaluation varies across the grid as it does in a real sweep.
# score-fleet: enroll -> evaluate -> verify on a synthetic 40-device x 60-row
#   feature table with no DSP at all, so the verify layer runs alone.
#   evaluate makes 96,000 verify() calls while enroll fits only 40 models and
#   verify loads the whole store, so a scoring speed-up that moves work into
#   enrollment or store load shows as a gain in one command and a cost in
#   another.
WORKLOADS = ("fingerprint-session", "tune-sweep", "score-fleet")

CLAIM = "dev-00"


def scenario(seed: int) -> int:
    return seed % SCENARIOS


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([scenario(seed), stream])


def _profiles(rng: np.random.Generator) -> list[dict]:
    """Ten emitters with overlapping impairment ranges (so the EER stays > 0)."""
    profiles = []
    for i in range(N_EMITTERS):
        g = float(1.0 + rng.uniform(-0.04, 0.04))
        profiles.append({
            "emitter_id": f"dev-{i:02d}",
            "cfo_hz": float(rng.uniform(-40.0, 40.0)),
            "iq_gain_imbalance": g,
            "iq_phase_imbalance_rad": float(rng.uniform(-0.04, 0.04)),
            "phase_noise_linewidth_hz": float(rng.uniform(2.0, 12.0)),
            "pa_a1": [float(rng.uniform(0.97, 1.03)), 0.0],
            "pa_a3": [float(rng.uniform(-0.05, 0.0)), 0.0],
            "ramp_up_samples": int(rng.integers(40, 120)),
            "ramp_down_samples": int(rng.integers(20, 80)),
        })
    return profiles


def _entries(rng: np.random.Generator, bursts_per_emitter: int) -> list[dict]:
    ids = np.repeat([f"dev-{i:02d}" for i in range(N_EMITTERS)], bursts_per_emitter)
    rng.shuffle(ids)
    entries = []
    for slot, emitter_id in enumerate(ids):
        offset = round(float(rng.uniform(0.0, 0.01)), 5)
        entries.append({
            "emitter_id": str(emitter_id),
            "start_time_s": round(slot * SLOT_S + offset, 5),
            "payload_bits": PAYLOAD,
        })
    return entries


def experiment_config(seed: int, bursts_per_emitter: int) -> dict:
    """An experiment config in the README format for a seeded session."""
    rng = _rng(seed, bursts_per_emitter)
    n_slots = N_EMITTERS * bursts_per_emitter
    render, channel, frontend = (int(s) for s in np.random.SeedSequence(
        [scenario(seed), bursts_per_emitter]).generate_state(3))
    return {
        "sample_rate_hz": FS,
        "samples_per_symbol": SPS,
        "seeds": {"render": render, "channel": channel, "frontend": frontend},
        "profiles": _profiles(rng),
        "schedule": {
            "session_duration_s": round(n_slots * SLOT_S, 5),
            "entries": _entries(rng, bursts_per_emitter),
        },
        "channel": {"snr_db": 15.0, "multipath_taps": [[0, 1.0, 0.0], [2, 0.2, 0.1]],
                    "path_loss_db": 6.0},
        "receiver": {"filter_bw_hz": 40000.0, "gain_db": 0.0, "adc_bits": 12,
                     "full_scale": 1.0, "frontend_noise_power": 1e-6},
        # Bursts fill half of each slot, so the detector's median floor sits on
        # burst edges: a short window and 40-120 sample ramps keep that floor
        # near the noise, and every burst detectable.
        "detector": {"window": 16, "open_threshold_db": 10.0, "close_threshold_db": 6.0,
                     "min_length": 256, "merge_gap": 128},
        "extraction": {"wpd_depth": 4},
        "enrollment": {"ridge_lambda": 0.001, "keep_features": 12},
        "tuning": {"gain_db_values": [-20.0, -10.0, 0.0, 10.0, 20.0],
                   "filter_bw_hz_values": [20000.0, 30000.0, 40000.0],
                   "strategy": "exhaustive",
                   "objective": {"clip_weight": 0.5, "no_roi_penalty": 100.0}},
    }


FLEET_DEVICES = 40
FLEET_ROWS = 60


def fleet_table(seed: int) -> str:
    """A labelled feature table in the README format: per-device Gaussians.

    Device means overlap (between-device spread below the within-device
    spread on most columns), so genuine and impostor scores overlap.
    """
    rng = _rng(seed, 1000)
    n_cols = len(CATALOG)
    scale = rng.uniform(0.5, 2.0, n_cols)
    offset = rng.uniform(-5.0, 5.0, n_cols)
    spread = rng.uniform(0.3, 0.7, n_cols)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(FEATURE_PREFIX + CATALOG)
    for d in range(FLEET_DEVICES):
        mean = offset + scale * spread * rng.standard_normal(n_cols)
        rows = mean + scale * rng.standard_normal((FLEET_ROWS, n_cols))
        for r, values in enumerate(rows):
            writer.writerow([f"fleet-{d:02d}", r, f"dev-{d:02d}", r * 4096, 2048]
                            + [repr(float(v)) for v in values])
    return out.getvalue()


def generate(workload: str, seed: int, inputs: Path) -> None:
    """Write the workload's inputs for this seed into `inputs`."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "fingerprint-session":
        doc = experiment_config(seed, 60)
    elif workload == "tune-sweep":
        doc = experiment_config(seed, 24)
    elif workload == "score-fleet":
        doc = {"enrollment": {"ridge_lambda": 0.001, "keep_features": 12}}
        (inputs / "features.csv").write_text(fleet_table(seed), encoding="utf-8", newline="")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (inputs / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


def commands(workload: str, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's closed-loop command sequence: (name, radiofp argv)."""
    config = str(inputs / "config.json")
    if workload == "fingerprint-session":
        features = str(out / "features" / "features.csv")
        store = str(out / "store" / "fingerprints.json")
        return [
            ("synth", ["synth", "--config", config, "--out", str(out / "dataset")]),
            ("pipeline", ["pipeline", "--config", config, "--dataset", str(out / "dataset"),
                          "--out", str(out / "features")]),
            ("enroll", ["enroll", "--config", config, "--features", features,
                        "--out", str(out / "store")]),
            ("evaluate", ["evaluate", "--features", features, "--store", store,
                          "--out", str(out / "metrics")]),
            ("verify", ["verify", "--features", features, "--store", store, "--claim", CLAIM,
                        "--out", str(out / "decisions")]),
        ]
    if workload == "tune-sweep":
        return [("tune", ["tune", "--config", config, "--out", str(out / "tuned")])]
    if workload == "score-fleet":
        features = str(inputs / "features.csv")
        store = str(out / "store" / "fingerprints.json")
        return [
            ("enroll", ["enroll", "--config", config, "--features", features,
                        "--out", str(out / "store")]),
            ("evaluate", ["evaluate", "--features", features, "--store", store,
                          "--out", str(out / "metrics")]),
            ("verify", ["verify", "--features", features, "--store", store, "--claim", CLAIM,
                        "--out", str(out / "decisions")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks -------------------------------------------------------------

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Floats compared with a tolerance: |observed - reference| <= RTOL * |reference|.
# Everything else (counts, EER, the chosen grid point) must match exactly.
RTOL = 1e-9
TOLERANT = {"column_means", "objectives", "objective"}


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def summarize(command: str, out: Path) -> dict:
    """The values of a command's output files that the checks compare."""
    if command == "synth":
        meta = json.loads((out / "dataset" / "session.sigmf-meta").read_text(encoding="utf-8"))
        return {"annotations": len(meta["annotations"]),
                "data_bytes": (out / "dataset" / "session.sigmf-data").stat().st_size}
    if command == "pipeline":
        rows = _csv_rows(out / "features" / "features.csv")
        values = np.array([[float(v) for v in r[len(FEATURE_PREFIX):]] for r in rows])
        return {"rows": len(rows), "labelled": sum(1 for r in rows if r[2]),
                "column_means": values.mean(axis=0).tolist() if rows else []}
    if command == "enroll":
        doc = json.loads((out / "store" / "fingerprints.json").read_text(encoding="utf-8"))
        fps = doc["fingerprints"]
        return {"devices": len(fps), "kept_indices": fps[0]["kept_indices"] if fps else []}
    if command == "evaluate":
        doc = json.loads((out / "metrics" / "metrics.json").read_text(encoding="utf-8"))
        return {"eer": doc["eer"], "n_genuine": doc["n_genuine"], "n_impostor": doc["n_impostor"]}
    if command == "verify":
        rows = _csv_rows(out / "decisions" / "decisions.csv")
        return {"rows": len(rows), "accepted": sum(int(r[5]) for r in rows)}
    if command == "tune":
        best = json.loads((out / "tuned" / "best_config.json").read_text(encoding="utf-8"))
        rows = _csv_rows(out / "tuned" / "trace.csv")
        return {"rows": len(rows), "n_rois": [int(r[6]) for r in rows],
                "objectives": [float(r[3]) for r in rows],
                "best_gain_db": best["gain_db"], "best_filter_bw_hz": best["filter_bw_hz"],
                "objective": best["objective"]}
    raise ValueError(f"unknown command {command!r}")


def compare(observed: dict, reference: dict) -> list[str]:
    """Mismatches between an observed summary and its reference, one line each."""
    problems = []
    for key, want in reference.items():
        got = observed.get(key)
        if key in TOLERANT:
            want_a, got_a = np.atleast_1d(want), np.atleast_1d(got)
            ok = want_a.shape == got_a.shape and bool(
                np.all(np.abs(got_a - want_a) <= RTOL * np.abs(want_a)))
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, want {want!r}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def check(workload: str, seed: int, command: str, out: Path, reference: dict) -> list[str]:
    """Problems with one command's outputs; an empty list means they are correct."""
    want = reference[workload][str(scenario(seed))][command]
    try:
        got = summarize(command, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]
    return [f"{command}: {p}" for p in compare(got, want)]
