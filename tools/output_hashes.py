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
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--seeds", type=seed_range, default=range(16),
                        help="inclusive seed range such as 0-15 (the default), or one seed")
    parser.add_argument("--rss", action="store_true",
                        help="also write each command's peak RSS in MB to standard error")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}

    lines, peaks = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                inputs, out = Path(tmp, workload, str(seed), "inputs"), Path(tmp, workload, str(seed), "out")
                workloads.generate(workload, seed, inputs)
                for name, command in workloads.commands(workload, inputs, out):
                    code, peak_mb, faults, output = run([sys.executable, "-m", "radiofp.cli", *command], env, tmp)
                    if code != 0:
                        sys.exit(f"{workload} seed {seed}: `{name}` exited {code}\n{output}")
                    if args.rss:
                        print(f"{peak_mb:8.1f} {faults:8d}  {workload}/{seed}/{name}", file=sys.stderr)
                        peaks.setdefault(f"{workload}/{name}", []).append((peak_mb, faults))
                for path in out.rglob("*"):
                    if path.is_file():
                        key = f"{workload}/{seed}/{path.relative_to(out).as_posix()}"
                        lines[key] = sha256_of(path)
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
