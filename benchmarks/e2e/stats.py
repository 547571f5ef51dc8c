"""Order statistics shared by the workload runner and ``compare``.

Pure Python on purpose: ``compare`` reads result files on machines where
the analysis stack is not importable, and the runner must not import
numpy before it has pinned the BLAS thread counts.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

__all__ = ["median", "quartiles", "spread", "tail_percentile", "summarize"]

#: Percentiles considered for the tail, lowest first.
_PERCENTILES = (50, 75, 90, 95, 99)

#: Samples that must lie beyond a reported tail percentile.
_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(n: int) -> Optional[int]:
    """Highest percentile with at least ten of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it:
    such a run reports its median only.
    """
    best = None
    for p in _PERCENTILES:
        if n * (100 - p) / 100 >= _MIN_BEYOND:
            best = p
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median, quartiles and the tail percentile if any."""
    q1, q2, q3 = quartiles(values)
    out: Dict[str, float] = {"n": len(values), "p50": q2, "q1": q1, "q3": q3}
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        out[f"p{tail}"] = cuts[tail - 1]
    return out
