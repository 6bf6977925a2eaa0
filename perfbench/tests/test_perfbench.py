"""Tests of the benchmark itself: inputs, output checks and trace counters.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import filecmp
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from traced_run import Tracer, run_pass  # noqa: E402

SEED = 5


def _files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    workloads.generate(workload, SEED, first)
    workloads.generate(workload, SEED, second)
    workloads.generate(workload, SEED + 1, other)
    names = _files(first)
    assert names == _files(second) == _files(other)
    _match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors
    _match, mismatch, _errors = filecmp.cmpfiles(first, other, names, shallow=False)
    assert mismatch, "another seed should give other inputs"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced in-process pass per workload: (layer metrics, output dir, outcomes, spans)."""
    from radiofp import cli

    results = {}
    for workload in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        workloads.generate(workload, SEED, base / "inputs")
        tracer = Tracer()
        tracer.install()
        try:
            _wall, outcomes = run_pass(cli, workloads.commands(workload, base / "inputs",
                                                               base / "out"), tracer)
        finally:
            tracer.uninstall()
        layer, _failures = tracer.metrics()
        results[workload] = (layer, base / "out", outcomes, tracer.spans)
    return results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_match_reference(traced, workload):
    _layer, out, outcomes, _spans = traced[workload]
    reference = workloads.load_reference()
    assert all(rc == 0 for _name, rc in outcomes), outcomes
    for name, _rc in outcomes:
        assert workloads.check(workload, SEED, name, out, reference) == []


def test_check_rejects_perturbed_eer(traced, tmp_path):
    out = traced["score-fleet"][1]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "metrics" / "metrics.json"
    doc = json.loads(path.read_text())
    doc["eer"] = doc["eer"] * (1 + 1e-12)
    path.write_text(json.dumps(doc))
    problems = workloads.check("score-fleet", SEED, "evaluate", copy, workloads.load_reference())
    assert len(problems) == 1 and problems[0].startswith("evaluate: eer:")


def test_check_rejects_missing_feature_row(traced, tmp_path):
    out = traced["fingerprint-session"][1]
    copy = tmp_path / "out"
    shutil.copytree(out / "features", copy / "features")
    path = copy / "features" / "features.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    problems = workloads.check("fingerprint-session", SEED, "pipeline", copy,
                               workloads.load_reference())
    assert any(p.startswith("pipeline: rows:") for p in problems)
    assert any(p.startswith("pipeline: labelled:") for p in problems)


def test_check_reports_missing_output(tmp_path):
    problems = workloads.check("tune-sweep", SEED, "tune", tmp_path, workloads.load_reference())
    assert len(problems) == 1 and "unreadable output" in problems[0]


def test_counters_add_up(traced):
    session = traced["fingerprint-session"][0]
    assert session["features.extract.rois"] + session["features.extract.failed"] \
        == session["detect.rois"] == 600
    assert session["emitter.bursts"] == 600
    assert session["detect.hit_ratio"] == 1.0 and session["detect.false_alarms"] == 0
    sweep = traced["tune-sweep"][0]
    assert sweep["tuning.evaluations"] == 15
    assert sweep["tuning.acquisition_metrics.calls"] == 2 * 15
    assert sweep["receiver.acquire.calls"] == 15
    fleet, spans = traced["score-fleet"][0], traced["score-fleet"][3]
    scoring = {i for i, span in enumerate(spans) if span[0] == "verify.genuine_impostor_scores"}
    under_scoring = sum(1 for span in spans if span[0] == "verify.verify" and span[3] in scoring)
    assert under_scoring == 96000
    assert fleet["verify.verify.calls"] == 96000 + 2400  # plus one call per probe in `verify`
    assert fleet["detect.rois"] == 0 and fleet["emitter.bursts"] == 0


def test_per_layer_metrics_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(traced["score-fleet"][0]) | {"cli.import_ms", "trace.overhead.ms",
                                                "trace.overhead.pct"}
    assert declared == produced


def test_timing_reports_percentile_only_with_ten_samples_beyond():
    assert run.timing([1.0, 2.0, 3.0])["pct"] is None
    summary = run.timing([float(i) for i in range(1, 21)])
    assert (summary["pct"], summary["pct_value"], summary["n"]) == (50, 10.0, 20)
    summary = run.timing([float(i) for i in range(1, 201)])
    assert (summary["pct"], summary["pct_value"]) == (95, 190.0)
