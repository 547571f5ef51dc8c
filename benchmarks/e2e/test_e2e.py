"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

from benchmarks.e2e import workloads as wl
from benchmarks.e2e.cli import END_TO_END, ROOT, WORKLOAD_NAMES
from benchmarks.e2e.compare import compare_results, verdict
from benchmarks.e2e.layers import LAYER_METRICS
from benchmarks.e2e.stats import summarize, tail_percentile

JOBS = min(2, os.cpu_count() or 1)


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    assert tail_percentile(40) == 75
    assert tail_percentile(20) == 50
    assert tail_percentile(10) is None
    assert "p75" in summarize([float(i) for i in range(40)])
    assert set(summarize([float(i) for i in range(10)])) == {"n", "p50", "q1", "q3"}


def test_the_seed_alone_fixes_the_inputs():
    makers = (
        lambda seed: wl.point_inputs("point-m512", seed, 20),
        wl.curve_inputs,
        lambda seed: wl.battery_orders(seed, 5),
    )
    for make in makers:
        assert make(7) == make(7)
        assert make(7) != make(8)
    # The traced pass runs a prefix of the same inputs.
    assert wl.point_inputs("point-m512", 7, 4) == wl.point_inputs("point-m512", 7, 20)[:4]
    assert all(0.05 <= v <= 0.12 for v in wl.point_inputs("point-m2048", 7, 200))


def _unconverged(spec, **kwargs):
    return SimpleNamespace(
        ber=1e-9,
        solver_result=SimpleNamespace(converged=False, residual=1e-3, iterations=200),
    )


def test_unconverged_solves_are_counted_as_failed(monkeypatch):
    monkeypatch.setattr(wl, "analyze_cdr", _unconverged)
    points = wl.point_workload(64, [0.08, 0.09])
    assert (points.attempted, points.failed) == (4, 4)
    assert all("not converged" in reason for reason in points.failures.values())

    curve = wl.curve_workload(64, [0.07, 0.075], n_curves=1, jobs=JOBS)
    assert (curve.attempted, curve.failed) == (4, 4)
    assert all("NotConverged" in reason for reason in curve.failures.values())


def test_golden_mismatches_are_counted_as_failed(monkeypatch):
    real = wl.load_golden

    def skewed(name, size):
        golden = real(name, size)
        measures = {k: 1.5 * v + 1.0 for k, v in golden.measures.items()}
        return dataclasses.replace(golden, measures=measures)

    monkeypatch.setattr(wl, "load_golden", skewed)
    out = wl.battery_workload([[("baseline", "assembled"), ("alexander-offset", "matrix-free")]])
    assert (out.attempted, out.failed, out.notes["golden_mismatches"]) == (2, 2, 2)


def test_compare_verdicts():
    a = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert verdict(a, [1.05, 1.04, 1.06, 1.05, 1.05], 0.1, "lower") == "within bound"
    assert verdict(a, [1.2, 1.21, 1.19, 1.2, 1.22], 0.1, "lower") == "regressed"
    assert verdict(a, [0.6, 1.4, 1.0, 0.7, 1.3], 0.1, "lower") == "unresolved"
    # Noisy, but every run of B beats every run of A.
    assert verdict(a, [0.5, 0.9, 0.7, 0.55, 0.85], 0.1, "lower") == "within bound"
    assert verdict(a, [0.8, 0.81, 0.79, 0.8, 0.8], 0.1, "higher") == "regressed"


def test_compare_flags_any_increase_in_failed_ratio():
    benchmark = {
        "workloads": [{"name": "scenarios"}],
        "end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}],
    }

    def results(failed):
        return {"records": [{
            "workload": "scenarios", "traced": False, "attempted": 10,
            "failed": failed, "metrics": {"t": {"value": 1.0, "unit": "s"}},
        }]}

    rows = compare_results(results(0), results(1), benchmark)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("t", "within bound"), ("failed_ratio", "regressed"),
    ]


def test_tiny_point_workload():
    out = wl.point_workload(64, [0.08])
    assert (out.attempted, out.failed) == (2, 0)
    assert [len(s) for s in out.samples.values()] == [1, 1]
    assert out.notes["cycles"] > 0


def test_tiny_curve_workload():
    out = wl.curve_workload(64, [0.07, 0.075], n_curves=1, jobs=JOBS)
    assert (out.attempted, out.failed) == (4, 0)
    assert out.notes["context.hierarchy_hits"] == 1
    assert out.notes["exec.completed"] == 2


def test_tiny_battery_workload():
    out = wl.battery_workload(wl.battery_orders(3, 1))
    assert (out.attempted, out.failed) == (8, 0)
    assert [len(s) for s in out.samples.values()] == [1, 1]


def test_benchmark_json_lists_what_the_runs_report():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_METRICS


def _run_py(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_run_prints_the_result_line_last():
    proc = _run_py(ROOT, "--workload", "scenarios", "--seed", "3",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_py(tmp_path, "--workload", "scenarios", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_build").exists()
