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
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def seed_range(text: str) -> range:
    """'0-15' or a single seed such as '3'."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--seeds", type=seed_range, default=range(16),
                        help="inclusive seed range such as 0-15 (the default), or one seed")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}

    lines = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                inputs, out = Path(tmp, workload, str(seed), "inputs"), Path(tmp, workload, str(seed), "out")
                workloads.generate(workload, seed, inputs)
                for name, command in workloads.commands(workload, inputs, out):
                    proc = subprocess.run([sys.executable, "-m", "radiofp.cli", *command],
                                          env=env, capture_output=True, text=True, cwd=tmp)
                    if proc.returncode != 0:
                        sys.exit(f"{workload} seed {seed}: `{name}` exited {proc.returncode}\n{proc.stderr}")
                for path in out.rglob("*"):
                    if path.is_file():
                        key = f"{workload}/{seed}/{path.relative_to(out).as_posix()}"
                        lines[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    for key in sorted(lines):
        print(f"{lines[key]}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
