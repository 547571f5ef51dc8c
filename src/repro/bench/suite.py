"""Running benchmark suites into versioned ``repro.bench/1`` reports.

A report is the repo's checked-in performance trajectory (the
``BENCH_*.json`` files ROADMAP cites): min-of-N wall timings per
registered benchmark plus an *environment fingerprint* (interpreter,
numpy/scipy/repro versions, platform, CPU count) so a later
``repro bench compare`` can tell a real regression from a machine change.

Min-of-N is the right statistic for regression tracking: the minimum of
repeated runs estimates the noise-free cost (scheduler preemption and
cache pollution only ever add time), so two reports from the same machine
are comparable at thresholds far below the mean's variance.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from repro.bench.registry import BenchmarkEntry, suite_benchmarks

__all__ = [
    "BENCH_SCHEMA",
    "environment_fingerprint",
    "run_benchmark",
    "run_suite",
    "default_output_path",
    "write_report",
    "load_report",
]

#: Schema tag of a benchmark report.
BENCH_SCHEMA = "repro.bench/1"


def environment_fingerprint() -> Dict[str, Any]:
    """The environment identity a report was produced under.

    Stable across repeated calls in one environment; any field changing
    between a baseline and a comparison run means the timings are not
    machine-comparable (``repro bench compare`` warns but still compares).
    """
    import os
    import platform
    import sys

    import numpy
    import scipy

    import repro
    from repro.kernels import active_tier

    return {
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        # Active matvec kernel tier: a baseline timed under cext is
        # not comparable to a run forced onto the numpy tier.
        "kernels": active_tier(),
    }


def run_benchmark(
    entry: BenchmarkEntry,
    rounds: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one benchmark: setup via the factory, then timed rounds.

    Returns the report row: name, suites, all round timings, ``min_s`` /
    ``mean_s``, and whatever dict the workload returned as ``meta``.

    A benchmark whose ``min_cpus`` exceeds this machine's ``os.cpu_count()``
    is not run at all: oversubscribed parallel timings are noise, not data.
    It returns an explicit *skip row* instead (``skipped`` reason plus the
    cpu requirement), so the checked-in artifact records that the benchmark
    was consciously not measured rather than silently absent.
    """
    import os

    cpu_count = os.cpu_count() or 1
    if cpu_count < entry.min_cpus:
        return {
            "name": entry.name,
            "suites": list(entry.suites),
            "description": entry.description,
            "skipped": "insufficient cpus",
            "required_cpus": entry.min_cpus,
            "cpu_count": cpu_count,
        }
    rounds = entry.rounds if rounds is None else rounds
    warmup = entry.warmup if warmup is None else warmup
    workload = entry.factory()
    meta: Dict[str, Any] = {}
    for _ in range(warmup):
        out = workload()
        if isinstance(out, dict):
            meta = out
    times: List[float] = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = workload()
        times.append(time.perf_counter() - t0)
        if isinstance(out, dict):
            meta = out
    return {
        "name": entry.name,
        "suites": list(entry.suites),
        "description": entry.description,
        "rounds": rounds,
        "warmup": warmup,
        "times_s": times,
        "min_s": min(times),
        "mean_s": sum(times) / len(times),
        "meta": meta,
    }


def run_suite(
    suite: Optional[str] = None,
    names: Optional[List[str]] = None,
    rounds: Optional[int] = None,
    warmup: Optional[int] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run a whole suite (or an explicit name list) into a report dict.

    ``progress(entry, row)`` is called after each benchmark completes
    (the CLI prints a line per benchmark through it).
    """
    if names:
        from repro.bench.registry import get_benchmark

        entries = tuple(get_benchmark(n) for n in names)
    else:
        entries = suite_benchmarks(suite)
    results = []
    for entry in entries:
        row = run_benchmark(entry, rounds=rounds, warmup=warmup)
        results.append(row)
        if progress is not None:
            progress(entry, row)
    fingerprint = environment_fingerprint()
    skipped = [r["name"] for r in results if r.get("skipped")]
    if skipped:
        fingerprint["note"] = (
            f"{len(skipped)} benchmark(s) skipped on this "
            f"{fingerprint['cpu_count']}-cpu machine "
            f"(insufficient cpus): {', '.join(skipped)}"
        )
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite or "all",
        "created_unix": time.time(),
        "fingerprint": fingerprint,
        "results": results,
    }


def default_output_path(suite: Optional[str]) -> str:
    """The checked-in artifact name for a suite (``BENCH_<suite>.json``)."""
    slug = (suite or "all").replace("-", "_")
    return f"BENCH_{slug}.json"


def write_report(path: str, report: Dict[str, Any]) -> None:
    """Write a report as JSON, validating its schema tag."""
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError("not a benchmark report (missing/wrong schema tag)")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Read a report back, validating its schema tag."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unrecognized benchmark report schema {report.get('schema')!r}; "
            f"expected {BENCH_SCHEMA!r}"
        )
    return report
