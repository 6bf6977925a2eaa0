"""Batch command-line surface wiring the pipeline end to end.

Subcommands:
    synth      synthesize a dataset from an experiment config
    pipeline   detect bursts and extract features for every session
    enroll     build per-device fingerprints from a labeled feature table
    verify     score probe features against one claimed identity
    evaluate   EER / ROC / FAR / FRR from a labeled feature table and a store
    tune       run the adaptive controller against a synthesized plant

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
All randomness comes from seeds in the config, so every command is
deterministic and output files are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np

from .channel import propagate
from .config import (
    EXPERIMENT,
    REQUIRED,
    atomic_write,
    build_schedule,
    check_below_sample_rate,
    check_session_size,
    csv_chunks,
    fields,
    json_text,
    load_json,
    parse,
)
from .detect import DetectorParams, detect_bursts
from .dsp import seal
from .emitter import render_session
from .errors import ValidationError, WorkbenchError
from .features import (
    ExtractionConfig,
    FeatureVector,
    catalog_names,
    catalog_version_of,
    extract,
    fisher_select,
)
from .receiver import ReceiverConfig, acquire, add_frontend_noise
from .sigmf_io import build_dataset, read_recording
from .tuning import ObjectiveParams, TuningGrid, objective, tune, write_trace_csv
from .verify import (
    calibrate_threshold,
    enroll,
    evaluate,
    genuine_impostor_scores,
    load_fingerprint_store,
    save_fingerprint_store,
    verify,
)

FEATURE_CSV_PREFIX = ("session", "roi_index", "label", "start_sample", "length")
INTEGER_COLUMNS = {1: 0, 3: 0, 4: 1}  # the least roi_index, start_sample and length


# The config sections that define a synthesized session.
SESSION = ("sample_rate_hz", "samples_per_symbol", "seeds", "profiles", "schedule", "channel", "receiver")


def _load_config(args, *required: str) -> dict:
    """Parse the whole experiment config; --seed-override replaces its seeds."""
    doc = load_json(args.config)
    if args.seed_override is not None and isinstance(doc, dict):
        seed = args.seed_override
        doc["seeds"] = {"render": seed, "channel": seed + 1, "frontend": seed + 2}
    return parse(doc, {**EXPERIMENT, **{name: (EXPERIMENT[name][0], REQUIRED) for name in required}})


def _session_parts(config: dict):
    check_session_size(config["schedule"]["session_duration_s"], config["sample_rate_hz"])
    schedule, profiles = build_schedule(config["schedule"], config["profiles"], "schedule")
    return (schedule, profiles, config["channel"], config["receiver"], config["seeds"],
            config["sample_rate_hz"], config["samples_per_symbol"])


def _check_window(detector: DetectorParams, n_samples: int) -> None:
    if detector.window > n_samples:  # a config error, caught before detection
        raise ValidationError(f"detector.window {detector.window} exceeds the session's {n_samples} samples")


def _check_out(out: str) -> None:
    """Refuse, before any work, an --out that is or lies under something other than a directory."""
    existing = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not existing.is_dir():
        raise ValidationError(f"--out '{out}': '{existing}' is not a directory")


def _output(args, name: str) -> Path:
    """Path of output file `name`, creating the --out directory."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def cmd_synth(args) -> int:
    config = _load_config(args, *SESSION)
    schedule, profiles, channel, rx, seeds, sample_rate, sps = _session_parts(config)
    check_below_sample_rate([rx.filter_bw_hz], sample_rate, "receiver.filter_bw_hz")
    with fields(""):
        result = build_dataset(
            schedule, profiles, channel, rx, seeds, args.out, sample_rate, sps,
            stem=config["stem"],
        )
    if args.verbose:
        print(f"rendered {len(result.ground_truth)} bursts into {result.data_file}", file=sys.stderr)
    print(result.manifest_file)
    return 0


def _feature_rows_for_session(stem: Path, detector: DetectorParams, extraction: ExtractionConfig):
    """(rows, the error class of each ROI extract rejected): a dropped ROI leaves a gap in roi_index."""
    recording, meta = read_recording(stem)
    _check_window(detector, len(recording))
    rois = detect_bursts(recording, detector)
    # A ROI takes the label of the first annotation it overlaps most (bursts may overlap);
    # index 0 is "no annotation", with a zero overlap that only a positive one beats.
    labels = ["", *(ann.label for ann in meta.annotations)]
    starts = np.array([ann.sample_start for ann in meta.annotations], dtype=np.int64)
    ends = starts + np.array([ann.sample_count for ann in meta.annotations], dtype=np.int64)
    rows, dropped = [], []
    for i, roi in enumerate(rois):
        try:
            vec = extract(roi, recording, extraction)
        except WorkbenchError as exc:
            dropped.append(type(exc).__name__)
            continue
        overlap = np.minimum(ends, roi.end_sample) - np.maximum(starts, roi.start_sample)
        label = labels[int(np.argmax(np.append(0, overlap)))]
        rows.append((stem.name, i, label, roi.start_sample, roi.length, vec))
    return rows, dropped


def cmd_pipeline(args) -> int:
    config = _load_config(args)
    detector, extraction = config["detector"], config["extraction"]

    dataset_dir = Path(args.dataset)
    stems = sorted(p.with_suffix("") for p in dataset_dir.glob("*.sigmf-meta"))
    if not stems:
        raise ValidationError(f"no .sigmf-meta files found in '{dataset_dir}'")

    failures: list[tuple[Path, Exception]] = []
    all_rows = []
    for stem in stems:
        try:
            rows, dropped = _feature_rows_for_session(stem, detector, extraction)
        except (WorkbenchError, OSError) as exc:
            failures.append((stem, exc))
            continue
        if args.verbose:
            drops = "".join(f", {dropped.count(name)} dropped ({name})" for name in sorted(set(dropped)))
            print(f"{stem.name}: {len(rows)} ROI(s){drops}", file=sys.stderr)
        all_rows += rows

    for stem, exc in failures:
        print(f"warning: {stem}: {exc}", file=sys.stderr)
    if len(failures) == len(stems):
        print("error: every session failed", file=sys.stderr)
        return 2 if all(isinstance(exc, ValidationError) for _, exc in failures) else 1

    rows = ([session, idx, label, start, length] + [repr(float(v)) for v in vec.values]
            for session, idx, label, start, length, vec in all_rows)
    features_path = _output(args, "features.csv")
    atomic_write(features_path, csv_chunks(FEATURE_CSV_PREFIX + catalog_names(extraction), rows))
    print(features_path)
    return 0


def _cell_error(path: str, line: int, header: list[str], row: list[str]) -> ValidationError:
    """Name the first cell of a feature-table row that does not parse or is out of range."""
    for col in [*INTEGER_COLUMNS, *range(len(FEATURE_CSV_PREFIX), len(header))]:
        integer = col in INTEGER_COLUMNS
        try:
            if (int(row[col]) >= INTEGER_COLUMNS[col]) if integer else math.isfinite(float(row[col])):
                continue
        except ValueError:
            pass
        break
    expected = f"an integer >= {INTEGER_COLUMNS[col]}" if integer else "a finite number"
    return ValidationError(f"{path}, row {line}, column '{header[col]}': {row[col]!r:.40} is not {expected}")


def _csv_rows(path: str):
    """The rows of a CSV file; text that is not UTF-8 or a cell over csv.field_size_limit() names its row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except csv.Error as exc:
            raise ValidationError(f"{path}, row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:  # decoded ahead of the reader, so the row is found in the bytes
            text = Path(path).read_bytes().decode("utf-8", errors="surrogateescape")
            row = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
            raise ValidationError(f"{path}, row {row}: not UTF-8 text") from None


def _read_feature_table(path: str) -> tuple[tuple[str, ...], list[str], list[FeatureVector]]:
    """(feature_names, labels, vectors) from a pipeline CSV, whose header must be
    FEATURE_CSV_PREFIX followed by the full catalog of one wavelet depth."""
    with contextlib.closing(_csv_rows(path)) as rows:
        header = next(rows, [])
        prefix, names = tuple(header[:len(FEATURE_CSV_PREFIX)]), tuple(header[len(FEATURE_CSV_PREFIX):])
        version = catalog_version_of(names) if prefix == FEATURE_CSV_PREFIX else None
        if version is None:
            raise ValidationError(
                f"'{path}' is not a feature table: the header must be "
                f"{','.join(FEATURE_CSV_PREFIX)} followed by the feature catalog in order"
            )
        labels, vectors = [], []
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{path}, row {line}: {len(row)} columns, expected {len(header)}")
            try:
                if any(int(row[col]) < least for col, least in INTEGER_COLUMNS.items()):
                    raise ValueError("integer cell out of range")
                vectors.append(FeatureVector(
                    names=names,
                    values=[float(v) for v in row[len(FEATURE_CSV_PREFIX):]],
                    roi_ref=(row[0], int(row[3])),  # session, start_sample
                    catalog_version=version,
                ))
            except ValueError:  # a bad or out-of-range cell; FeatureError for a non-finite one
                raise _cell_error(path, line, header, row) from None
            labels.append(row[2])
    if not vectors:
        raise ValidationError(f"feature table '{path}' has no rows")
    return names, labels, vectors


def cmd_enroll(args) -> int:
    config = _load_config(args)
    enrollment = dict(config["enrollment"])
    keep = enrollment.pop("keep_features")

    names, labels, vectors = _read_feature_table(args.features)
    labeled = [(v, l) for v, l in zip(vectors, labels) if l]
    if not labeled:
        raise ValidationError("feature table has no labeled rows to enroll from")
    vecs = [v for v, _ in labeled]
    labs = [l for _, l in labeled]

    k = len(names) if keep is None else keep
    if not 1 <= k <= len(names):
        raise ValidationError(f"enrollment.keep_features must lie in [1, {len(names)}], got {k}")
    selection = fisher_select(vecs, labs, k)

    fingerprints = []
    for device in sorted(set(labs)):
        device_vecs = [v for v, l in zip(vecs, labs) if l == device]
        with fields("enrollment"):
            fingerprints.append(enroll(device, device_vecs, selection, **enrollment))

    store_path = _output(args, "fingerprints.json")
    save_fingerprint_store(fingerprints, store_path, catalog_names=names)
    print(store_path)
    return 0


def cmd_verify(args) -> int:
    names, _labels, vectors = _read_feature_table(args.features)
    store = load_fingerprint_store(args.store, names)
    if args.claim not in store:
        raise ValidationError(f"--claim '{args.claim}' is not enrolled in {args.store}")
    fp = store[args.claim]

    decisions = (verify(vec, fp) for vec in vectors)
    rows = ([vec.roi_ref[0], vec.roi_ref[1], d.claimed_id, repr(d.squared_distance), repr(d.threshold_used),
             int(d.accepted)] for vec, d in zip(vectors, decisions))
    decisions_path = _output(args, "decisions.csv")
    header = ["session", "roi_start", "claimed_id", "squared_distance", "threshold", "accepted"]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing d^2 scores inf, as in score_vectors
        atomic_write(decisions_path, csv_chunks(header, rows))
    print(decisions_path)
    return 0


def _repr_rows(*columns: np.ndarray):
    """Rows of repr(float) cells from equal-length columns; tolist() per 4,096-row block is fast
    and keeps few Python floats alive."""
    for start in range(0, columns[0].size, 4096):
        yield from zip(*(map(repr, column[start:start + 4096].tolist()) for column in columns))


def cmd_evaluate(args) -> int:
    names, labels, vectors = _read_feature_table(args.features)
    store = load_fingerprint_store(args.store, names)
    genuine, impostor = genuine_impostor_scores(vectors, labels, store)
    if genuine.size == 0 or impostor.size == 0:
        raise ValidationError("need both genuine and impostor scores; check labels vs store")
    report = evaluate(genuine, impostor)
    eer_threshold = calibrate_threshold(genuine, impostor, policy="eer")

    roc = _repr_rows(report.far, report.frr, report.thresholds)
    atomic_write(_output(args, "roc.csv"), csv_chunks(["far", "frr", "threshold"], roc))

    metrics = {
        "eer": report.eer,
        "eer_threshold": report.eer_threshold,
        "calibrated_threshold": eer_threshold,
        "n_genuine": int(genuine.size),
        "n_impostor": int(impostor.size),
        "far_at_frr": {str(k): v for k, v in report.far_at.items()},
        "frr_at_far": {str(k): v for k, v in report.frr_at.items()},
    }
    metrics_path = _output(args, "metrics.json")
    atomic_write(metrics_path, json_text(metrics))
    print(metrics_path)
    return 0


def cmd_tune(args) -> int:
    config = _load_config(args, *SESSION, "tuning")
    schedule, profiles, channel, rx_template, seeds, sample_rate, sps = _session_parts(config)
    _check_window(config["detector"], int(round(schedule.session_duration_s * sample_rate)))
    tuning = dict(config["tuning"])
    with fields("tuning"):
        grid = TuningGrid(tuple(tuning.pop("gain_db_values")), tuple(tuning.pop("filter_bw_hz_values")))
    check_below_sample_rate(grid.filter_bw_hz_values, sample_rate, "tuning.filter_bw_hz_values")
    obj_params = ObjectiveParams(**tuning.pop("objective"), full_scale=rx_template.full_scale)

    # The plant is synthesized once, front-end noise included: that noise comes
    # before the gain stage, so one draw serves every grid point, and each
    # evaluation re-acquires the noisy capture with the noise power set to 0.
    # Each stage's input is dropped once consumed, so only that capture stays alive in the loop.
    with fields(""):
        rendered, truth = render_session(schedule, profiles, sample_rate, sps, seeds.render)
        received = propagate(rendered, truth, channel, seeds.channel)
    del rendered, truth
    noisy = received.replace_samples(seal(add_frontend_noise(
        received.samples.copy(), rx_template.frontend_noise_power, seeds.frontend)))
    del received

    def plant(rx_config: ReceiverConfig):
        quiet = dataclasses.replace(rx_config, frontend_noise_power=0.0)
        acquired = acquire(noisy, quiet, seeds.frontend)
        rois = detect_bursts(acquired, config["detector"])
        return acquired, rois, objective(acquired, rois, obj_params)

    with fields("tuning"):
        trace = tune(plant, grid, config_template=rx_template, **tuning)

    trace_path = _output(args, "trace.csv")
    write_trace_csv(trace, trace_path)
    best = {**dataclasses.asdict(trace.best_config),
            "objective": trace.best_value, "n_evaluations": trace.n_evaluations}
    best_path = _output(args, "best_config.json")
    atomic_write(best_path, json_text(best))
    print(trace_path)
    print(best_path)
    return 0


# Each command: (handler, help, the options it requires besides --out).
COMMANDS = {
    "synth": (cmd_synth, "synthesize a dataset from a config", ("config",)),
    "pipeline": (cmd_pipeline, "detect + extract features for a dataset", ("config", "dataset")),
    "enroll": (cmd_enroll, "enroll fingerprints from a feature table", ("config", "features")),
    "verify": (cmd_verify, "verify probes against a claimed identity", ("features", "store", "claim")),
    "evaluate": (cmd_evaluate, "EER/ROC metrics from a labeled table", ("features", "store")),
    "tune": (cmd_tune, "run the adaptive controller on a scenario", ("config",)),
}
OPTION_HELP = {
    "config": "experiment config (JSON)",
    "dataset": "directory holding .sigmf-data/.sigmf-meta pairs",
    "features": "feature CSV from the pipeline command",
    "store": "fingerprint store (JSON)",
    "claim": "claimed device id",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiofp",
        description="Deterministic RF-fingerprinting workbench (synthesize, detect, "
                    "extract, enroll, verify, evaluate, tune).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed-override", type=int, default=None,
                        help="replace all config seeds with values derived from this one")
    common.add_argument("--verbose", action="store_true", help="chatty progress on stderr")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for option in options:
            p.add_argument(f"--{option}", required=True, help=OPTION_HELP[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
