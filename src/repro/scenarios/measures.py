"""Backend-agnostic measure kernels for scenario evaluation.

The scenario battery's whole point is that every measure is computed the
same way on every TPM backend.  Distribution propagation therefore goes
through the :class:`~repro.markov.linop.TransitionOperator` protocol:
``rmatvec`` for the settling and trajectory measures, and the chain's
entries, read once through ``triplets()``
(:func:`~repro.markov.lumping.entries_csr`, never ``to_csr()``), for the
first-passage kernel.  First-passage moments, which
:mod:`repro.markov.passage` solves with sparse LU on the assembled
matrix, are recomputed here by *survival iteration*: absorb the target
set, propagate the start distribution, and accumulate the survival
series

    E[T] = sum_{k>=0} P(T > k),

with a geometric tail estimate closing the truncated remainder.  On an
assembled chain both routes agree (a test invariant); on a matrix-free
chain only this one exists.  The iteration runs as one kernel call
(``csr_survival`` of :mod:`repro.kernels`) over the transposed entries,
bit-identical to applying the operator's own ``rmatvec`` step by step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.kernels import CSRArrays, get_kernel
from repro.markov.linop import TransitionOperator, as_operator, unwrap_operator
from repro.markov.lumping import entries_csr
from repro.obs.profile import InstrumentedOperator, instrument_operator

__all__ = [
    "FirstPassageSummary",
    "first_passage_survival",
    "tv_settling_time",
    "expected_value_trajectory",
]


@dataclass(frozen=True)
class FirstPassageSummary:
    """First-passage-time statistics from one start distribution.

    ``mean_symbols`` includes a geometric tail correction for the mass
    still unabsorbed at the horizon; ``p_unabsorbed`` reports that mass so
    callers can see how much of the mean is extrapolated.
    """

    mean_symbols: float
    quantile_symbols: float
    quantile: float
    p_unabsorbed: float
    steps_run: int


def _scatter_table(op) -> CSRArrays:
    """``P^T`` as a kernel scatter table, read once through ``triplets()``.

    Rows are destination states, entries in ascending source order: the
    accumulation order of every backend's ``rmatvec``, so the kernel's
    gather reproduces it bit for bit (a Kronecker operator, whose
    ``rmatvec`` is a factored apply, only to rounding).  An operator
    without ``triplets()`` raises
    :class:`~repro.markov.linop.OperatorCapabilityError`.
    """
    P = entries_csr(unwrap_operator(op))
    rows = np.repeat(np.arange(P.shape[0], dtype=np.int64), np.diff(P.indptr))
    return CSRArrays(P.indices.astype(np.int64), rows, P.data, P.shape[0])


def first_passage_survival(
    op,
    start: np.ndarray,
    target_mask: np.ndarray,
    quantile: float = 0.99,
    survival_tol: float = 1e-12,
    max_steps: int = 200_000,
) -> FirstPassageSummary:
    """First-passage time to ``target_mask`` by survival iteration.

    Propagates the start distribution through the target-absorbed chain:
    after each step, mass on target states is removed, so the remaining
    total is exactly ``P(T > k)``.  Stops once survival falls below
    ``survival_tol`` (the geometric tail then closes the mean) or after
    ``max_steps`` (the mean is then a lower bound; ``p_unabsorbed`` says
    by how much).

    The steps run in one ``csr_survival`` kernel call over the chain's
    transposed entries; a profile session counts them as ``rmatvec``
    calls under ``measure.first_passage``, as if applied one by one.
    """
    operator: TransitionOperator = instrument_operator(
        as_operator(op), role="measure.first_passage"
    )
    n = operator.shape[0]
    mask = np.ascontiguousarray(target_mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError("target mask has wrong size")
    if not mask.any():
        raise ValueError("target set must be non-empty")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    x = np.array(start, dtype=float)
    if x.shape != (n,):
        raise ValueError("start distribution has wrong size")

    table = _scatter_table(operator)
    t0 = time.perf_counter()
    steps, survival, prev, mean, quantile_at = get_kernel().csr_survival(
        table, x, mask, survival_tol, max_steps, 1.0 - quantile
    )
    if steps and isinstance(operator, InstrumentedOperator):
        # Each step read one vector and wrote one, as an rmatvec does.
        operator.record(
            "rmatvec", time.perf_counter() - t0, steps * 2 * x.nbytes,
            calls=steps,
        )
    if survival > 0.0 and prev > survival:
        # Below the stopping tolerance the series is in its asymptotic
        # geometric regime; sum the remaining tail analytically.
        ratio = survival / prev
        if ratio < 1.0:
            mean += survival * ratio / (1.0 - ratio)
    return FirstPassageSummary(
        mean_symbols=float(mean),
        quantile_symbols=float(quantile_at if quantile_at >= 0 else np.inf),
        quantile=quantile,
        p_unabsorbed=survival,
        steps_run=steps,
    )


def tv_settling_time(
    op,
    start: np.ndarray,
    stationary: np.ndarray,
    epsilon: float,
    max_steps: int,
) -> int:
    """Symbols until total variation to ``stationary`` first drops below
    ``epsilon``; ``max_steps`` when the horizon is hit first (a lower
    bound, matching :func:`repro.markov.transient.mixing_time`)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    operator: TransitionOperator = instrument_operator(
        as_operator(op), role="measure.tv_settling"
    )
    x = np.asarray(start, dtype=float).copy()
    pi = np.asarray(stationary, dtype=float)
    # The check after the last apply could only return max_steps, which
    # the horizon returns anyway: max_steps applies, not one more.
    for k in range(max_steps):
        if 0.5 * float(np.abs(x - pi).sum()) < epsilon:
            return k
        x = operator.rmatvec(x)
    return max_steps


def expected_value_trajectory(
    op,
    start: np.ndarray,
    per_state_values: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """``E[f(X_k)]`` for ``k = 0..n_steps`` through the operator protocol."""
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    operator: TransitionOperator = instrument_operator(
        as_operator(op), role="measure.expected_value"
    )
    x = np.asarray(start, dtype=float).copy()
    f = np.asarray(per_state_values, dtype=float)
    out = np.empty(n_steps + 1)
    out[0] = float(np.dot(x, f))
    for k in range(1, n_steps + 1):
        x = operator.rmatvec(x)
        out[k] = float(np.dot(x, f))
    return out
