"""SHA-256 of every output file the benchmark workloads write, for byte-identity checks.

For each workload and seed, generates the inputs with perfbench/workloads.py,
runs the workload's commands as `python -m radiofp.cli` processes against the
radiofp package under --src, and prints one `sha256  workload/seed/file` line
per output file, sorted by path. Two trees are byte-identical on the
workloads when their listings are:

    python tools/output_hashes.py --src /path/to/parent/src > parent.txt
    python tools/output_hashes.py --src src > change.txt
    diff parent.txt change.txt

A command that exits non-zero stops the script with exit 1, naming the
workload, seed and command.

With --rss the script also writes, to standard error, each command's peak
RSS as perfbench/run.py measures it and its minor page faults (both from the
child's own rusage from os.wait4), one `peak_rss_mb  minor_faults
workload/seed/command` line per command, and at the end one `median  max`
pair of each per command over the seeds, so one run gives both the
byte-identity listing and the per-command memory table. The fault counts
are logged, not checked.

Each output is hashed in 1 MiB chunks, never read whole. On Linux a child
reports a peak RSS (ru_maxrss) no lower than the high-water RSS of the
process that spawned it, so reading one 20 MB .sigmf-data file whole here
would raise the reading of every later command to this script's own
peak. With --rss the script's own peak, the floor of every reading, is
the last line.

With --against OTHER_SRC the script runs every workload on both trees and
compares each output of --src with the same output of OTHER_SRC (the old
tree) under the README "Output contracts", cell by cell: CSV cells by
column, JSON values by key path (list positions written `[]`), and
`.sigmf-data` samples by value. It prints, for each workload and file, on
how many seeds the bytes were identical, then the largest relative change
of each column over the seeds, a `!` marking a breach, and exits 1 if any
cell breaches the contract:

    python tools/output_hashes.py --src src --against /path/to/parent/src
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def seed_range(text: str) -> range:
    """'0-15' or a single seed such as '3'; an empty range such as '5-3' would check nothing, so it is an error."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} is an empty seed range")
    return seeds


def run(argv: list[str], env: dict, cwd: str) -> tuple[int, float, int, str]:
    """Run one command to completion: its exit code, its peak RSS in MB, its minor page faults and its output."""
    with tempfile.TemporaryFile() as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_minflt, log.read().decode(errors="replace")


def median(values: list) -> float:
    """The mean of the middle two of sorted values (one, for an odd count); no statistics import,
    which would raise this script's own peak, the floor of every reading."""
    return (values[len(values) // 2] + values[~(len(values) // 2)]) / 2


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# The README "Output contracts", values across a code change: floats within RTOL relative, the NEAR_ZERO
# columns (the features tests/test_features.py names, which can sit near 0) within RTOL * max(|old|, 1),
# and the EXACT floats (the EER and the grid point) and every int, string and bool cell unchanged.
RTOL = 1e-12
NEAR_ZERO = ("amp_skew", "amp_kurt", "phase_resid_skew", "phase_resid_kurt", "cfo_est_hz")
EXACT = ("eer", "gain_db", "filter_bw_hz")


def parse_cell(text: str):
    """A CSV cell as the value it writes: an int, else a float, else the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def cell_change(column: str, old, new) -> tuple[float, bool]:
    """(relative change, breach) of one cell of `column` under the value contract."""
    if type(old) is not float or type(new) is not float:
        return (0.0, False) if (type(old), old) == (type(new), new) else (math.inf, True)
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0, False
    leaf = column.rpartition(".")[2]
    scale = max(abs(old), 1.0) if leaf in NEAR_ZERO else abs(old)
    change = abs(new - old) / scale if scale else math.inf
    change = math.inf if math.isnan(change) else change
    return change, change > (0.0 if leaf in EXACT else RTOL)


def flatten(value, column: str = ""):
    """(key path, value) for each leaf of a JSON document, in document order; list positions are written []."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{column}.{key}" if column else key)
    elif isinstance(value, list):
        for item in value:
            yield from flatten(item, f"{column}[]")
    else:
        yield column, value


def cells(path: Path):
    """(column, value) for each cell of a CSV or JSON output file, in file order."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, [])
            for row in rows:
                yield from zip(header, map(parse_cell, row))
    else:
        yield from flatten(json.loads(path.read_text()))


def sample_change(old: Path, new: Path) -> tuple[float, bool]:
    """(largest relative change, breach) of two cf32_le data files compared by value, 1 MiB at a time:
    the sign of a zero is not part of the contract, any other change is a breach."""
    if old.stat().st_size != new.stat().st_size:
        return math.inf, True
    worst = 0.0
    with open(old, "rb") as fa, open(new, "rb") as fb, np.errstate(divide="ignore", invalid="ignore"):
        for chunk in iter(lambda: fa.read(1 << 20), b""):
            a, b = (np.frombuffer(c, dtype="<f4").astype(np.float64) for c in (chunk, fb.read(len(chunk))))
            moved = a != b
            if moved.any():
                worst = max(worst, float(np.max(np.abs(b[moved] - a[moved]) / np.abs(a[moved]))))
    return worst, worst > 0.0


def compare_outputs(old_dir: Path, new_dir: Path, workload: str, changes: dict, identical: dict) -> None:
    """Fold one seed's outputs into changes[(workload, file, column)] = [largest change, breach] and
    identical[(workload, file)] = seeds with identical bytes."""
    def note(file, column, change, breach):
        entry = changes.setdefault((workload, file, column), [0.0, False])
        entry[0], entry[1] = max(entry[0], change), entry[1] or breach

    names = {p.relative_to(d).as_posix() for d in (old_dir, new_dir) for p in d.rglob("*") if p.is_file()}
    for file in sorted(names):
        old, new = old_dir / file, new_dir / file
        if not (old.is_file() and new.is_file()):
            note(file, "<file>", math.inf, True)
            continue
        identical[(workload, file)] = identical.get((workload, file), 0) + (sha256_of(old) == sha256_of(new))
        if file.endswith(".sigmf-data"):
            note(file, "<samples>", *sample_change(old, new))
            continue
        for a, b in itertools.zip_longest(cells(old), cells(new)):
            if a is None or b is None or a[0] != b[0]:  # a cell more or fewer, or another column or key
                note(file, "<cells>", math.inf, True)
                break
            note(file, a[0], *cell_change(a[0], a[1], b[1]))


def run_workload(workload: str, seed: int, inputs: Path, out: Path, src: str, tmp: str, peaks: dict | None) -> None:
    """Run the workload's commands against the radiofp package under src, exiting 1 naming a command that fails.
    With peaks, also write each command's peak RSS to standard error and collect it there."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    for name, command in workloads.commands(workload, inputs, out):
        code, peak_mb, faults, output = run([sys.executable, "-m", "radiofp.cli", *command], env, tmp)
        if code != 0:
            sys.exit(f"{workload} seed {seed}: `{name}` exited {code} under {src}\n{output}")
        if peaks is not None:
            print(f"{peak_mb:8.1f} {faults:8d}  {workload}/{seed}/{name}", file=sys.stderr)
            peaks.setdefault(f"{workload}/{name}", []).append((peak_mb, faults))


def report(changes: dict, identical: dict, seeds: range) -> int:
    """Print the compare mode's table; 1 if any cell breaches the contract, else 0."""
    print(f"seeds {seeds.start}-{seeds.stop - 1}: seeds with identical bytes per file, then the largest relative "
          "change per column ('!' marks a breach of the README output contracts)")
    for workload, file in sorted({key[:2] for key in changes}):
        print(f"{identical.get((workload, file), 0):4d}/{len(seeds)}  {workload}/{file}")
        for (w, f, column), (change, breach) in changes.items():
            if (w, f) == (workload, file):
                print(f"  {'!' if breach else ' '} {change:9.3g}  {column}")
    breaches = sum(breach for _, breach in changes.values())
    print(f"{breaches} column(s) breach the contract" if breaches else "no breach")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--seeds", type=seed_range, default=range(16),
                        help="inclusive seed range such as 0-15 (the default), or one seed")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--rss", action="store_true",
                      help="also write each command's peak RSS in MB to standard error")
    mode.add_argument("--against", metavar="OTHER_SRC",
                      help="compare the outputs with those of the tree under OTHER_SRC under the README contracts")
    args = parser.parse_args(argv)

    lines, peaks, changes, identical = {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                base = Path(tmp, workload, str(seed))
                inputs, out = base / "inputs", base / "out"
                workloads.generate(workload, seed, inputs)
                run_workload(workload, seed, inputs, out, args.src, tmp, peaks if args.rss else None)
                if args.against:
                    run_workload(workload, seed, inputs, base / "old", args.against, tmp, None)
                    compare_outputs(base / "old", out, workload, changes, identical)
                else:
                    for path in out.rglob("*"):
                        if path.is_file():
                            lines[f"{workload}/{seed}/{path.relative_to(out).as_posix()}"] = sha256_of(path)
                shutil.rmtree(base)  # so that the temporary directory holds one seed's files at a time
    if args.against:
        return report(changes, identical, args.seeds)
    for key in sorted(lines):
        print(f"{lines[key]}  {key}")
    if args.rss:
        print(f"peak RSS in MB and minor page faults over seeds {args.seeds.start}-{args.seeds.stop - 1}:\n"
              "  median      max   median      max", file=sys.stderr)
        for key, runs in peaks.items():
            mbs, faults = (sorted(column) for column in zip(*runs))
            print(f"{median(mbs):8.1f} {mbs[-1]:8.1f} {median(faults):8.0f} {faults[-1]:8d}  {key}", file=sys.stderr)
        floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{floor_mb:8.1f}  (this script's own peak: no command reads below it)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
