"""Two-level aggregation/disaggregation (A/D) iteration.

The classical Koury-McAllister-Stewart scheme the paper describes as "the
starting point for aggregation-disaggregation techniques for MCs that are
used to accelerate the convergence of basic iterative methods":

1. smooth the current iterate with a few Gauss-Jacobi sweeps,
2. aggregate: build the coarse chain weighted by the current iterate and
   solve it exactly,
3. disaggregate: rescale the iterate so its block masses match the coarse
   solution (multiplicative correction),
4. repeat until the fine-level residual converges.

The multi-level generalization (Horton & Leutenegger) lives in
:mod:`repro.markov.multigrid`; this two-level version is both a useful
solver in its own right and the reference implementation the multigrid
tests compare against.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.markov.solvers.jacobi import jacobi_sweeps
from repro.markov.lumping import GalerkinPlan, Partition, aggregate_distribution
from repro.markov.solvers.direct import DirectPlan
from repro.markov.solvers.result import (
    StationaryResult,
    prepare_initial_guess,
    residual_norm,
)

__all__ = ["solve_aggregation_disaggregation", "disaggregate"]

_WEIGHT_FLOOR = 1e-300


def disaggregate(
    x: np.ndarray, coarse_dist: np.ndarray, partition: Partition
) -> np.ndarray:
    """Multiplicative prolongation of a coarse stationary vector.

    Rescales ``x`` block-wise so that the mass of block ``I`` equals
    ``coarse_dist[I]`` while preserving the intra-block shape of ``x``.
    """
    block = partition.block_of
    block_mass = np.bincount(block, weights=x, minlength=partition.n_blocks)
    block_mass = np.where(block_mass <= 0.0, 1.0, block_mass)
    factors = coarse_dist / block_mass
    out = x * factors[block]
    total = out.sum()
    if total <= 0:
        raise ArithmeticError("disaggregation produced a zero vector")
    return out / total


def solve_aggregation_disaggregation(
    P: sp.csr_matrix,
    partition: Partition,
    tol: float = 1e-10,
    max_iter: int = 500,
    x0: Optional[np.ndarray] = None,
    pre_sweeps: int = 1,
    post_sweeps: int = 1,
) -> StationaryResult:
    """Two-level A/D iteration with Gauss-Jacobi smoothing.

    Parameters
    ----------
    partition:
        The aggregation; a good choice groups strongly-coupled states
        (e.g. consecutive phase-error grid points in the CDR model).
    pre_sweeps, post_sweeps:
        Gauss-Jacobi smoothing sweeps before/after each coarse correction.
    """
    n = P.shape[0]
    if partition.n_states != n:
        raise ValueError("partition size does not match matrix size")
    x = prepare_initial_guess(n, x0)
    PT = P.T.tocsr()
    start = time.perf_counter()
    history = []
    converged = False
    it = 0
    # The partition fixes the coarse pattern: plan the Galerkin build and
    # the coarse factorization once, repeat only their numeric halves.
    galerkin = GalerkinPlan(P, partition)
    direct = None
    for it in range(1, max_iter + 1):
        if pre_sweeps:
            x = jacobi_sweeps(P, x, pre_sweeps)
        w = np.maximum(x, _WEIGHT_FLOOR)
        C = galerkin.coarse(P, w)
        if direct is None:
            direct = DirectPlan(C, weights=aggregate_distribution(w, partition))
        x = disaggregate(w, direct.solve(C), partition)
        if post_sweeps:
            x = jacobi_sweeps(P, x, post_sweeps)
        res = float(np.abs(PT.dot(x) - x).sum())
        history.append(res)
        if res < tol:
            converged = True
            break
    elapsed = time.perf_counter() - start
    return StationaryResult(
        distribution=x,
        iterations=it,
        residual=residual_norm(P, x),
        converged=converged,
        method="aggregation-disaggregation",
        residual_history=history,
        solve_time=elapsed,
    )
