"""Benchmark of the radiofp CLI: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload fingerprint-session --seed 0 --seconds 30 --trace 0

--trace 0 drives the workload as a user does: a closed loop with one client,
where each `python -m radiofp.cli` command starts after the previous one
exits, and reports the end-to-end metrics. --trace 1 runs the workload
in-process with every layer wrapped (traced_run.py) and reports the per-layer
metrics. The last line of standard output is the result object; the line
before it holds per-command timings, check results and provenance. Metric
names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9             # no-op CLI processes per run, for setup_s
IMPORT_REPEATS = 3            # `import radiofp.cli` samples per traced run
COMMAND_TIMEOUT_S = 150


def program_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Outcome(NamedTuple):
    wall_s: float
    peak_mb: float
    returncode: int


def run_process(argv: list[str], env: dict, log: Path) -> Outcome:
    """Run one process to completion and measure it.

    The peak RSS comes from this child's own rusage (os.wait4);
    RUSAGE_CHILDREN would be a running maximum over every child so far and
    hide a drop.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def timing(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "pct": None, "pct_value": None}
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            summary["pct"], summary["pct_value"] = pct, ordered[rank - 1]
            break
    return summary


def log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def untraced(workload: str, seed: int, seconds: float, inputs: Path, work: Path) -> dict:
    env, py = program_env(), sys.executable
    reference = workloads.load_reference()
    log = work / "command.log"
    attempted = failed = 0
    problems: list[str] = []

    setup = []
    for _ in range(SETUP_REPEATS):
        run = run_process([py, "-m", "radiofp.cli", "--help"], env, log)
        attempted += 1
        if run.returncode != 0:
            failed += 1
            problems.append(f"--help: exit {run.returncode}: {log_tail(log)}")
        setup.append(run.wall_s)

    per_command: dict[str, list[float]] = {}
    loops, peak_mb = [], 0.0
    start = time.perf_counter()
    while True:
        out = work / f"loop{len(loops)}"
        runs = []
        for name, argv in workloads.commands(workload, inputs, out):
            run = run_process([py, "-m", "radiofp.cli", *argv], env, log)
            runs.append(run)
            attempted += 1
            peak_mb = max(peak_mb, run.peak_mb)
            per_command.setdefault(name, []).append(run.wall_s)
            found = ([f"{name}: exit {run.returncode}: {log_tail(log)}"] if run.returncode
                     else workloads.check(workload, seed, name, out, reference))
            failed += bool(found)
            problems += found
        loops.append(sum(r.wall_s for r in runs))
        shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() - start + statistics.median(loops) > seconds:
            break

    values = {
        "setup_s": statistics.median(setup),
        "workflow_s": statistics.median(loops),
        "peak_rss_mb": peak_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    timings = {"setup_s": timing(setup), "workflow_s": timing(loops)}
    timings.update({f"{name}_s": timing(walls) for name, walls in per_command.items()})
    samples = {"setup_s": len(setup), "workflow_s": len(loops),
               "peak_rss_mb": sum(len(walls) for walls in per_command.values()),
               "ok_ratio": attempted}
    return {"values": values, "attempted": attempted, "failed": failed, "problems": problems,
            "timings": timings, "samples": samples}


def traced(workload: str, seed: int, seconds: float, inputs: Path, work: Path) -> dict:
    env, py = program_env(), sys.executable
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.json"
    probe = ("import time; t = time.perf_counter(); import radiofp.cli; "
             "print((time.perf_counter() - t) * 1e3)")
    imports = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([py, "-c", probe], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S, check=True)
        imports.append(float(proc.stdout.strip()))

    proc = subprocess.run(
        [py, str(Path(__file__).with_name("traced_run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--inputs", str(inputs),
         "--work", str(work), "--spans", str(spans)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"traced run exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["values"]["cli.import_ms"] = statistics.median(imports)
    result["samples"]["cli.import_ms"] = len(imports)
    result["timings"]["cli.import_ms"] = timing(imports)
    result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def provenance(workload: str, seed: int, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "workload": workload,
        "seed": seed,
        "scenario": workloads.scenario(seed),
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radiofp" / "cli.py").is_file():
        print(f"error: the radiofp sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        inputs = work / "inputs"
        workloads.generate(args.workload, args.seed, inputs)
        measure = traced if args.trace else untraced
        result = measure(args.workload, args.seed, args.seconds, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    detail = {k: v for k, v in result.items() if k not in ("values", "attempted", "failed")}
    detail["provenance"] = provenance(args.workload, args.seed, args.trace)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
