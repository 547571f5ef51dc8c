"""``compare A.json B.json``: per (workload, metric) verdicts against the bounds.

A and B are result files written by ``run --out``, each holding one or
more runs per workload.  For every end-to-end metric of
``BENCHMARK.json`` the comparison prints both medians and quartiles and
one verdict:

``within bound``
    B's median is no worse than A's by more than the metric's bound.
``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    The run-to-run spread of A or B is wider than the bound, so a change
    of that size cannot be told from noise -- unless every run of B reads
    better than every run of A, which is within bound.

``failed_ratio`` (failed / attempted operations) is judged as well: any
increase is a regression.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from benchmarks.e2e.stats import median, quartiles, spread

__all__ = ["verdict", "compare_results", "format_rows", "load_results"]

RESULT_SCHEMA = "repro.e2e-bench/1"


def load_results(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != RESULT_SCHEMA:
        raise ValueError(
            f"{path}: not an e2e result file (schema {payload.get('schema')!r}, "
            f"expected {RESULT_SCHEMA!r})"
        )
    return payload


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """Judge B against A for one metric; ``better`` is ``lower`` or ``higher``."""
    lower = better == "lower"
    ma, mb = median(a), median(b)
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "within bound" if all_better else "unresolved"
    return "regressed" if worse > bound else "within bound"


def _by_workload(payload: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = {}
    for record in payload["records"]:
        if not record.get("traced"):
            out.setdefault(record["workload"], []).append(record)
    return out


def compare_results(
    a: Dict[str, Any], b: Dict[str, Any], benchmark: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both result sets."""
    runs_a, runs_b = _by_workload(a), _by_workload(b)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in runs_a[workload]]
            vb = [r["metrics"][name]["value"] for r in runs_b[workload]]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": quartiles(va),
                "b": quartiles(vb),
                "n": (len(va), len(vb)),
                "verdict": verdict(va, vb, metric["bound"], metric["better"]),
            })
        ratio_a = [r["failed"] / r["attempted"] for r in runs_a[workload]]
        ratio_b = [r["failed"] / r["attempted"] for r in runs_b[workload]]
        rows.append({
            "workload": workload,
            "metric": "failed_ratio",
            "unit": "ratio",
            "a": quartiles(ratio_a),
            "b": quartiles(ratio_b),
            "n": (len(ratio_a), len(ratio_b)),
            "verdict": "regressed" if max(ratio_b) > max(ratio_a) else "within bound",
        })
    return rows


def format_rows(rows: Sequence[Dict[str, Any]]) -> str:
    header = (
        f"{'workload':<12} {'metric':<16} {'unit':<6} "
        f"{'A median [q1, q3]':<32} {'B median [q1, q3]':<32} verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for q1, q2, q3 in (row["a"], row["b"]):
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        lines.append(
            f"{row['workload']:<12} {row['metric']:<16} {row['unit']:<6} "
            f"{cells[0]:<32} {cells[1]:<32} {row['verdict']}"
        )
    return "\n".join(lines)
