"""Traced in-process run of one workload, started by `run.py --trace 1`.

Wraps radiofp's layer functions under the names their callers look them up
by (radiofp.cli.extract, radiofp.features.wpd_energies, ...), runs the
workload's commands through radiofp.cli.main(argv), and computes the
per-layer metrics from the recorded spans. Each span holds its name, start,
end and parent span; spans stay in memory, and the last traced pass's spans
are written to the --spans file at the end. A layer's self time is its span
minus its child spans.

Untraced and traced passes alternate, swapping order every pair; the
difference of their median wall times is the tracing overhead. A wrapped
name that no longer exists is reported missing and its metrics read 0.
Run with the program's src directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

COMMANDS = ("synth", "pipeline", "enroll", "evaluate", "verify", "tune")

# A detection is a hit when both of its edges lie within this many samples of
# the scheduled burst: twice the default 64-sample detector window, the
# tolerance the repository's detector tests use. Burst ramps (up to 120
# samples) move the detected edges by more than twice the 16-sample window
# the workloads detect with.
HIT_TOLERANCE = 128


class Tracer:
    """Span and counter registry for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.truth: list = []                # ground truth of the latest session seen
        self.detections: list = []           # (rois, truth) per detect_bursts call
        self.missing: list[str] = []
        self._saved: list = []

    def wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.failed"] += 1
                counts[f"{name}.failed.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    # Hooks that count work at the layer boundary, outside the span.
    def _wrote(self, paths, _args):
        self.counts["sigmf_io.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    def _read(self, result, args):
        stem = args[0]
        self.counts["sigmf_io.bytes_read"] += (os.path.getsize(f"{stem}.sigmf-data")
                                               + os.path.getsize(f"{stem}.sigmf-meta"))
        self.truth = [(a.sample_start, a.sample_count) for a in result[1].annotations]

    def _rendered(self, result, _args):
        self.truth = [(span.start_sample, span.length) for span in result[1]]

    def _detected(self, rois, _args):
        self.detections.append((rois, self.truth))

    def _tuned(self, trace, _args):
        self.counts["tuning.evaluations"] += trace.n_evaluations

    def install(self):
        wraps = [
            ("radiofp.sigmf_io", "render_session", "emitter.render_session", self._rendered),
            ("radiofp.cli", "render_session", "emitter.render_session", self._rendered),
            ("radiofp.emitter", "apply_impairments", "emitter.apply_impairments", None),
            ("radiofp.sigmf_io", "propagate", "sigmf_io.propagate", None),
            ("radiofp.cli", "propagate", "sigmf_io.propagate", None),
            ("radiofp.sigmf_io", "apply_multipath", "channel.apply_multipath", None),
            ("radiofp.sigmf_io", "add_awgn", "channel.add_awgn", None),
            ("radiofp.sigmf_io", "write_recording", "sigmf_io.write_recording", self._wrote),
            ("radiofp.cli", "read_recording", "sigmf_io.read_recording", self._read),
            ("radiofp.sigmf_io", "acquire", "receiver.acquire", None),
            ("radiofp.cli", "acquire", "receiver.acquire", None),
            ("radiofp.receiver", "fir_apply", "dsp.fir_apply", None),
            ("radiofp.features", "instantaneous", "dsp.instantaneous", None),
            ("radiofp.tuning", "estimate_snr_db", "dsp.estimate_snr_db", None),
            ("radiofp.cli", "detect_bursts", "detect.detect_bursts", self._detected),
            ("radiofp.cli", "extract", "features.extract", None),
            ("radiofp.features", "instantaneous_stats", "features.instantaneous_stats", None),
            ("radiofp.features", "transient_features", "features.transient_features", None),
            ("radiofp.features", "wpd_energies", "features.wpd_energies", None),
            ("radiofp.features", "spectral_features", "features.spectral_features", None),
            ("radiofp.cli", "fisher_select", "features.fisher_select", None),
            ("radiofp.cli", "enroll", "verify.enroll", None),
            ("radiofp.cli", "save_fingerprint_store", "verify.save_fingerprint_store", None),
            ("radiofp.cli", "load_fingerprint_store", "verify.load_fingerprint_store", None),
            ("radiofp.cli", "verify", "verify.verify", None),
            ("radiofp.verify", "verify", "verify.verify", None),
            ("radiofp.cli", "genuine_impostor_scores", "verify.genuine_impostor_scores", None),
            ("radiofp.cli", "evaluate", "verify.evaluate", None),
            ("radiofp.cli", "calibrate_threshold", "verify.calibrate_threshold", None),
            ("radiofp.cli", "tune", "tuning.tune", self._tuned),
            ("radiofp.cli", "objective", "tuning.objective", None),
            ("radiofp.tuning", "acquisition_metrics", "tuning.acquisition_metrics", None),
        ]
        for module_name, attr, name, after in wraps:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, original, after))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def metrics(self) -> tuple[dict, dict]:
        """(per-layer metrics keyed `<module>.<function>.<unit>`, extract failures by class)."""
        total, calls = defaultdict(float), Counter()
        children = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                children[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            self_time[name] += end - start - children[index]

        def per_call(name, scale, per=None):
            n = calls[per or name]
            return total[name] * scale / n if n else 0.0

        from radiofp.detect import match_rois

        hits = scheduled = false_alarms = 0
        for rois, truth in self.detections:
            report = match_rois(rois, truth, HIT_TOLERANCE)
            hits += report.hits
            scheduled += len(truth)
            false_alarms += report.false_alarms

        c = self.counts
        m = {
            "emitter.render_session.ms": total["emitter.render_session"] * 1e3,
            "emitter.apply_impairments.us_per_burst": per_call("emitter.apply_impairments", 1e6),
            "emitter.bursts": calls["emitter.apply_impairments"],
            "sigmf_io.propagate.ms": total["sigmf_io.propagate"] * 1e3,
            "channel.apply_multipath.ms": total["channel.apply_multipath"] * 1e3,
            "channel.add_awgn.ms": total["channel.add_awgn"] * 1e3,
            "sigmf_io.write_recording.ms": total["sigmf_io.write_recording"] * 1e3,
            "sigmf_io.read_recording.ms": total["sigmf_io.read_recording"] * 1e3,
            "sigmf_io.bytes_written": c["sigmf_io.bytes_written"],
            "sigmf_io.bytes_read": c["sigmf_io.bytes_read"],
            "receiver.acquire.ms_per_call": per_call("receiver.acquire", 1e3),
            "receiver.acquire.calls": calls["receiver.acquire"],
            "dsp.fir_apply.ms_per_call": per_call("dsp.fir_apply", 1e3),
            "dsp.instantaneous.us_per_call": per_call("dsp.instantaneous", 1e6),
            "dsp.estimate_snr_db.calls": calls["dsp.estimate_snr_db"],
            "dsp.estimate_snr_db.ms": total["dsp.estimate_snr_db"] * 1e3,
            "detect.detect_bursts.ms_per_call": per_call("detect.detect_bursts", 1e3),
            "detect.rois": sum(len(rois) for rois, _truth in self.detections),
            "detect.hit_ratio": hits / scheduled if scheduled else 0.0,
            "detect.false_alarms": false_alarms,
            "features.extract.us_per_roi": per_call("features.extract", 1e6),
            "features.extract.rois": calls["features.extract"] - c["features.extract.failed"],
            "features.extract.failed": c["features.extract.failed"],
            "features.fisher_select.ms": total["features.fisher_select"] * 1e3,
            "verify.enroll.ms_per_device": per_call("verify.enroll", 1e3),
            "verify.save_fingerprint_store.ms": total["verify.save_fingerprint_store"] * 1e3,
            "verify.verify.us_per_call": per_call("verify.verify", 1e6),
            "verify.verify.calls": calls["verify.verify"],
            "verify.genuine_impostor_scores.ms": total["verify.genuine_impostor_scores"] * 1e3,
            "verify.evaluate.ms": total["verify.evaluate"] * 1e3,
            "verify.calibrate_threshold.ms": total["verify.calibrate_threshold"] * 1e3,
            "verify.load_fingerprint_store.ms": total["verify.load_fingerprint_store"] * 1e3,
            "tuning.tune.ms": total["tuning.tune"] * 1e3,
            "tuning.tune.self_ms": self_time["tuning.tune"] * 1e3,
            "tuning.evaluations": c["tuning.evaluations"],
            "tuning.acquisition_metrics.calls": calls["tuning.acquisition_metrics"],
            "tuning.acquisition_metrics.ms": total["tuning.acquisition_metrics"] * 1e3,
            "tuning.objective.ms": total["tuning.objective"] * 1e3,
        }
        for family in ("instantaneous_stats", "transient_features", "wpd_energies",
                       "spectral_features"):
            m[f"features.{family}.us_per_roi"] = per_call(
                f"features.{family}", 1e6, per="features.extract")
        for command in COMMANDS:
            m[f"cli.{command}.self_ms"] = self_time[f"cli.{command}"] * 1e3
        failures = {k[len("features.extract.failed."):]: v for k, v in c.items()
                    if k.startswith("features.extract.failed.")}
        return m, failures


def run_pass(cli, commands, tracer=None) -> tuple[float, list]:
    """Run the command sequence in-process: (wall seconds, [(command, exit code or error)])."""
    outcomes = []
    start = time.perf_counter()
    for name, argv in commands:
        main = tracer.wrap(f"cli.{name}", cli.main) if tracer else cli.main
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = main(argv)
            except SystemExit as exc:       # argparse rejected the arguments
                rc = exc.code
            except Exception as exc:
                rc = f"{type(exc).__name__}: {exc}"
        if rc != 0 and isinstance(rc, int):
            lines = sink.getvalue().strip().splitlines()
            rc = f"exit {rc}: {lines[-1] if lines else ''}"
        outcomes.append((name, rc))
    return time.perf_counter() - start, outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    from radiofp import cli

    reference = workloads.load_reference()

    walls = {"untraced": [], "traced": []}
    per_pass, failures, spans, missing = [], Counter(), [], []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        pair = ("untraced", "traced") if len(walls["traced"]) % 2 == 0 else ("traced", "untraced")
        for kind in pair:
            out = args.work / f"{kind}{len(walls[kind])}"
            commands = workloads.commands(args.workload, args.inputs, out)
            tracer = Tracer() if kind == "traced" else None
            if tracer:
                tracer.install()
            try:
                wall, outcomes = run_pass(cli, commands, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            walls[kind].append(wall)
            for name, rc in outcomes:
                found = ([f"{kind} {name}: {rc}"] if rc != 0
                         else workloads.check(args.workload, args.seed, name, out, reference))
                attempted += 1
                failed += bool(found)
                problems += found
            if tracer:
                layer, dropped = tracer.metrics()
                per_pass.append(layer)
                failures.update(dropped)
                spans = tracer.spans
                missing = tracer.missing
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls["traced"]) > args.seconds:
            break

    args.spans.parent.mkdir(parents=True, exist_ok=True)
    args.spans.write_text(json.dumps(spans), encoding="utf-8")
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    untraced_s, traced_s = statistics.median(walls["untraced"]), statistics.median(walls["traced"])
    values["trace.overhead.ms"] = (traced_s - untraced_s) * 1e3
    values["trace.overhead.pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    print(json.dumps({
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "timings": {f"{kind}_pass_s": {"median": statistics.median(w), "n": len(w)}
                    for kind, w in walls.items()},
        "samples": {name: len(per_pass) for name in values},
        "missing": missing,
        "extract_failures_by_class": dict(failures),
        "spans_last_pass": len(spans),
    }))


if __name__ == "__main__":
    main()
