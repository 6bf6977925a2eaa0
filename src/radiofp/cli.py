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
import array
import contextlib
import csv
import dataclasses
import math
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

try:  # numpy >= 2
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:
    try:  # numpy 1.x
        from numpy.core.multiarray import _set_madvise_hugepage
    except ImportError:  # a numpy without the private switch keeps its own advice
        _set_madvise_hugepage = None

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
from .detect import DetectorParams, detect_bursts, detect_power
from .dsp import seal
from .errors import SizeError, ValidationError, WorkbenchError
from .features import (
    ExtractionConfig,
    catalog_names,
    catalog_version_of,
    extract,
    fisher_select,
)
from .receiver import ReceiverConfig, acquire_power, add_frontend_noise
from .sigmf_io import build_dataset, read_recording, received_buffer
from .tuning import ObjectiveParams, TuningGrid, objective, tune, write_trace_csv
from .verify import (
    enroll,
    evaluate,
    genuine_impostor_scores,
    load_fingerprint_store,
    save_fingerprint_store,
    score_matrix,
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
            row = extract(roi, recording, extraction)
        except WorkbenchError as exc:
            dropped.append(type(exc).__name__)
            continue
        overlap = np.minimum(ends, roi.end_sample) - np.maximum(starts, roi.start_sample)
        label = labels[int(np.argmax(np.append(0, overlap)))]
        rows.append((stem.name, i, label, roi.start_sample, roi.length, row))
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

    rows = ([session, idx, label, start, length, *row.tolist()] for session, idx, label, start, length, row in all_rows)
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


class FeatureTable(NamedTuple):
    """A pipeline CSV: its catalog names, each row's session, start sample and label, and the
    read-only N x F array of feature values."""

    names: tuple[str, ...]
    sessions: list[str]
    starts: list[int]
    labels: list[str]
    values: np.ndarray


def _read_feature_table(path: str) -> FeatureTable:
    """The feature table of a pipeline CSV, whose header must be FEATURE_CSV_PREFIX followed by
    the full catalog of one wavelet depth. The first bad cell, in row order, is an error naming it."""
    with contextlib.closing(_csv_rows(path)) as rows:
        header = next(rows, [])
        prefix, names = tuple(header[:len(FEATURE_CSV_PREFIX)]), tuple(header[len(FEATURE_CSV_PREFIX):])
        if prefix != FEATURE_CSV_PREFIX or catalog_version_of(names) is None:
            raise ValidationError(
                f"'{path}' is not a feature table: the header must be "
                f"{','.join(FEATURE_CSV_PREFIX)} followed by the feature catalog in order"
            )
        sessions, starts, labels, cells = [], [], [], array.array("d")  # cells: the values, row-major
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{path}, row {line}: {len(row)} columns, expected {len(header)}")
            try:
                if any(int(row[col]) < least for col, least in INTEGER_COLUMNS.items()):
                    raise ValueError("integer cell out of range")
                row_values = [float(v) for v in row[len(FEATURE_CSV_PREFIX):]]
                if not all(map(math.isfinite, row_values)):
                    raise ValueError("non-finite feature cell")
            except ValueError:
                raise _cell_error(path, line, header, row) from None
            sessions.append(row[0])
            starts.append(int(row[3]))
            labels.append(row[2])
            cells.extend(row_values)
    if not labels:
        raise ValidationError(f"feature table '{path}' has no rows")
    values = np.frombuffer(cells, dtype=np.float64).reshape(len(labels), len(names))
    values.setflags(write=False)
    return FeatureTable(names, sessions, starts, labels, values)


def cmd_enroll(args) -> int:
    config = _load_config(args)
    enrollment = dict(config["enrollment"])
    keep = enrollment.pop("keep_features")

    table = _read_feature_table(args.features)
    labeled = [i for i, label in enumerate(table.labels) if label]
    if not labeled:
        raise ValidationError("feature table has no labeled rows to enroll from")
    labels = [table.labels[i] for i in labeled]

    n_features = len(table.names)
    k = n_features if keep is None else keep
    if not 1 <= k <= n_features:
        raise ValidationError(f"enrollment.keep_features must lie in [1, {n_features}], got {k}")
    selection = fisher_select(table.values[labeled], labels, k)

    version = catalog_version_of(table.names)
    fingerprints = []
    for device in sorted(set(labels)):
        rows = table.values[[i for i, label in enumerate(table.labels) if label == device]]
        with fields("enrollment"):
            fingerprints.append(enroll(device, rows, selection, version, **enrollment))

    store_path = _output(args, "fingerprints.json")
    save_fingerprint_store(fingerprints, store_path, catalog_names=table.names)
    print(store_path)
    return 0


def cmd_verify(args) -> int:
    table = _read_feature_table(args.features)
    store = load_fingerprint_store(args.store, table.names)
    if args.claim not in store:
        raise ValidationError(f"--claim '{args.claim}' is not enrolled in {args.store}")
    fp = store[args.claim]

    d2 = score_matrix(table.values, {args.claim: fp})[0]
    rows = ([session, start, args.claim, score, fp.threshold, int(score <= fp.threshold)]
            for session, start, score in zip(table.sessions, table.starts, d2.tolist()))
    decisions_path = _output(args, "decisions.csv")
    header = ["session", "roi_start", "claimed_id", "squared_distance", "threshold", "accepted"]
    atomic_write(decisions_path, csv_chunks(header, rows))
    print(decisions_path)
    return 0


def _roc_chunks(report):
    """roc.csv's text, csv.writer's bytes for rows of floats, per 4,096 rows: fast, and few Python floats alive."""
    yield "far,frr,threshold\r\n"
    for start in range(0, report.thresholds.size, 4096):
        block = (column[start:start + 4096].tolist() for column in (report.far, report.frr, report.thresholds))
        yield "".join(map("%r,%r,%r\r\n".__mod__, zip(*block)))


def cmd_evaluate(args) -> int:
    table = _read_feature_table(args.features)
    store = load_fingerprint_store(args.store, table.names)
    genuine, impostor = genuine_impostor_scores(table.values, table.labels, store)
    if genuine.size == 0 or impostor.size == 0:
        raise ValidationError("need both genuine and impostor scores; check labels vs store")
    report = evaluate(genuine, impostor)
    atomic_write(_output(args, "roc.csv"), _roc_chunks(report))

    metrics = {
        "eer": report.eer,
        "eer_threshold": report.eer_threshold,
        "calibrated_threshold": report.eer_threshold,
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
    obj_params = ObjectiveParams(**tuning.pop("objective"))

    # The plant is synthesized once into one buffer, front-end noise included: that noise comes before the gain
    # stage, so one draw serves every grid point, each streamed through the receiver with the noise power set to 0.
    # power and track are allocated once: an array freed per evaluation leaves a heap hole that acquisition_metrics'
    # block buffers split, so the next one can grow the heap (by 6.4 MB of peak RSS under some install paths).
    with fields(""):
        samples = received_buffer(schedule, profiles, channel, seeds, sample_rate, sps)[0]
    noisy = seal(add_frontend_noise(samples, rx_template.frontend_noise_power, seeds.frontend))
    power, track = np.empty(noisy.size), np.empty(noisy.size)

    def plant(rx_config: ReceiverConfig):
        quiet = dataclasses.replace(rx_config, frontend_noise_power=0.0)
        clip = acquire_power(noisy, sample_rate, quiet, power)
        rois = detect_power(power, config["detector"], track)
        try:
            return objective(power, rois, clip, obj_params)
        except SizeError as exc:  # a ROI too short for its SNR estimate: the detector config let it through
            raise ValidationError(f"detector.min_length {config['detector'].min_length} is too short at tuning grid "
                                  f"point gain_db {quiet.gain_db}, filter_bw_hz {quiet.filter_bw_hz}: {exc}") from None

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


def _no_huge_pages() -> None:
    """Stop numpy advising the kernel to back its large arrays with transparent huge pages.

    Whether a 2 MiB page backs an advised array depends on how fragmented the
    machine's free memory is at that moment: with the advice, the same tune on
    the same files peaked at 82.8 MB on some runs and 76.4 MB on others. Without
    it a command's peak RSS depends on the command alone. NUMPY_MADVISE_HUGEPAGE,
    when set, still decides, and a numpy without the private switch is left as it is."""
    if _set_madvise_hugepage is not None and "NUMPY_MADVISE_HUGEPAGE" not in os.environ:
        _set_madvise_hugepage(False)


def main(argv=None) -> int:
    _no_huge_pages()
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
