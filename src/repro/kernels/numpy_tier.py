"""The always-available pure-NumPy kernel tier.

Reference implementation of the three kernel primitives over the plans
of :mod:`repro.kernels.plan`.  Every other tier must be bit-identical to
this one (and all tiers bit-identical to applying the assembled CSR
matrix) -- the equivalence battery in ``tests/kernels`` enforces it.

The roll kernel is a Python loop over plan segments, but each iteration
is three vectorized slice operations on contiguous ranges -- no
``np.roll`` (which allocates and concatenates) and no modular indexing.
The branch kernel uses ``np.bincount`` over pre-sorted entries, whose C
loop accumulates sequentially in element order -- the same order (and
therefore the same floating-point result) as a CSR row sum -- instead of
the far slower ``np.add.at``.  The survival kernel is the step loop of
:func:`~repro.scenarios.measures.first_passage_survival` over the branch
kernel; the compiled tier runs the same loop without returning to Python.
"""

from __future__ import annotations

import numpy as np

__all__ = ["roll_apply", "csr_apply", "csr_survival"]

name = "numpy"


def roll_apply(q: np.ndarray, segs, x: np.ndarray, out: np.ndarray) -> None:
    """Accumulate one roll-plan application into ``out`` (zero-initialized).

    ``x`` and ``out`` are ``(n,)`` vectors or C-contiguous ``(n, k)``
    multi-vector blocks; ``q`` is the plan's ``(n_rows, M)`` weight table.
    """
    M = q.shape[1]
    if x.ndim == 1:
        xb = x.reshape(-1, M)
        ob = out.reshape(-1, M)
        for orow, irow, qrow, scale, a, b, xoff, woff in segs.rows():
            w = q[qrow, a + woff: b + woff] * scale
            w *= xb[irow, a + xoff: b + xoff]
            ob[orow, a:b] += w
    else:
        k = x.shape[1]
        xb = x.reshape(-1, M, k)
        ob = out.reshape(-1, M, k)
        for orow, irow, qrow, scale, a, b, xoff, woff in segs.rows():
            w = q[qrow, a + woff: b + woff] * scale
            ob[orow, a:b, :] += w[:, None] * xb[irow, a + xoff: b + xoff, :]


def csr_apply(cs, x: np.ndarray, out: np.ndarray) -> None:
    """One branch-plan (CSR-form) application into ``out`` (zeroed).

    ``np.bincount`` adds the sorted entries sequentially into each bin,
    which is exactly the accumulation order of a CSR row sum.
    """
    if x.ndim == 1:
        out[:] = np.bincount(
            cs.rows, weights=cs.vals * x[cs.cols], minlength=cs.n_rows
        )
    else:
        for j in range(x.shape[1]):
            out[:, j] = np.bincount(
                cs.rows, weights=cs.vals * x[cs.cols, j], minlength=cs.n_rows
            )


def csr_survival(cs, x: np.ndarray, mask: np.ndarray, survival_tol: float,
                 max_steps: int, threshold: float) -> tuple:
    """Survival iteration of the target-absorbed chain over ``cs`` (``P^T``).

    Zeroes the target rows (``mask``) of the start distribution ``x`` (in
    place), then applies ``cs`` and zeroes the target rows again until
    the remaining mass ``P(T > k)`` is at most ``survival_tol`` or
    ``max_steps`` steps have run.  Returns ``(steps, survival, prev,
    mean, quantile_at)``: the last two survivals, their running sum over
    ``k = 0..steps``, and the first step with ``survival <= threshold``
    (``-1`` if none).
    """
    targets = np.flatnonzero(mask)
    x[targets] = 0.0
    survival = float(x.sum())
    mean = prev = survival
    quantile_at = 0 if survival <= threshold else -1
    # One gather buffer for the whole iteration; the bin sums are the
    # next iterate, so a step allocates only them.  ``mode="clip"``
    # (the indices are in range) keeps ``take`` from buffering ``out``.
    gathered = np.empty(cs.vals.shape)
    steps = 0
    while survival > survival_tol and steps < max_steps:
        np.take(x, cs.cols, out=gathered, mode="clip")
        gathered *= cs.vals
        x = np.bincount(cs.rows, weights=gathered, minlength=cs.n_rows)
        x[targets] = 0.0
        prev, survival = survival, float(x.sum())
        steps += 1
        mean += survival
        if quantile_at < 0 and survival <= threshold:
            quantile_at = steps
    return steps, survival, prev, mean, quantile_at
