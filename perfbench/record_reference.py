"""Record the reference outputs the benchmark checks against.

Runs every workload once per scenario in-process and writes the checked
values to reference.json. Re-record only when a change to the program is
meant to change its outputs, and say so with the change. Run from the
repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads
from traced_run import run_pass

WORK = Path(__file__).resolve().parent.parent / ".perfbench_work" / "reference"


def main() -> None:
    from radiofp import cli

    reference: dict = {}
    for workload in workloads.WORKLOADS:
        for scenario in range(workloads.SCENARIOS):
            inputs, out = WORK / "inputs", WORK / "out"
            workloads.generate(workload, scenario, inputs)
            _wall, outcomes = run_pass(cli, workloads.commands(workload, inputs, out))
            bad = [(name, rc) for name, rc in outcomes if rc != 0]
            if bad:
                raise SystemExit(f"{workload} scenario {scenario}: {bad}")
            reference.setdefault(workload, {})[str(scenario)] = {
                name: workloads.summarize(name, out) for name, _rc in outcomes}
            shutil.rmtree(WORK)
            print(workload, scenario, flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
