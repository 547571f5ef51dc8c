"""Arnoldi (ARPACK) eigensolver for the stationary distribution.

The stationary vector is the left Perron eigenvector of ``P`` (paper Eq.
(5)); ARPACK's implicitly-restarted Arnoldi iteration finds the few
largest-magnitude eigenpairs of ``P^T`` directly.  As a byproduct it
exposes the *subdominant* eigenvalue, whose modulus governs the mixing
rate -- the quantity that decides whether the basic iterative methods are
viable or the multigrid is needed.

Needs the assembled matrix (ARPACK wants a concrete sparse operator with a
cheap transpose), so matrix-free operators are materialized through
:func:`~repro.markov.linop.ensure_csr`.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from repro.markov.linop import ensure_csr
from repro.markov.monitor import SolverMonitor, instrument
from repro.markov.registry import register_solver
from repro.markov.solvers.result import (
    StationaryResult,
    prepare_initial_guess,
    residual_norm,
)

__all__ = ["solve_eigen", "subdominant_eigenvalue"]


def solve_eigen(
    P,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    x0: Optional[np.ndarray] = None,
    monitor: Optional[SolverMonitor] = None,
) -> StationaryResult:
    """Stationary vector via ARPACK on ``P^T`` (largest-magnitude pair).

    The monitor sees a single iteration event with the final residual
    (ARPACK does not expose per-restart residuals).
    """
    P = ensure_csr(P)
    n = P.shape[0]
    if n < 3:
        # ARPACK needs k < n - 1; fall back to the direct solver.
        from repro.markov.solvers.direct import solve_direct

        return solve_direct(P, tol=tol, monitor=monitor)
    v0 = prepare_initial_guess(n, x0)
    recorder, mon = instrument("arnoldi", n, tol, monitor)
    start = time.perf_counter()
    try:
        vals, vecs = eigs(P.T.tocsc(), k=1, which="LM", v0=v0,
                          maxiter=max_iter, tol=tol)
        converged = True
    except ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        converged = vals.size > 0
        if not converged:
            raise ArithmeticError("ARPACK failed to produce any eigenpair") from exc
    x = np.abs(np.real(vecs[:, 0]))
    total = x.sum()
    if total <= 0:
        raise ArithmeticError("ARPACK returned a zero eigenvector")
    x /= total
    res = residual_norm(P, x)
    elapsed = time.perf_counter() - start
    mon.iteration_finished(1, res, elapsed)
    converged = converged and res < max(tol * 100, 1e-6)
    mon.solve_finished(converged, 1, res, elapsed)
    return StationaryResult(
        distribution=x,
        iterations=1,
        residual=res,
        converged=converged,
        method="arnoldi",
        residual_history=recorder.residual_history,
        solve_time=elapsed,
        recording=recorder,
    )


@register_solver(
    "arnoldi",
    matrix_free=False,
    description="ARPACK Arnoldi on P^T (largest-magnitude eigenpair)",
    default_max_iter=10_000,
)
def _dispatch_eigen(P, *, tol=1e-10, max_iter=None, x0=None, monitor=None, **kwargs):
    # ARPACK exposes no per-iteration iterate, so on_iterate never fires.
    kwargs.pop("on_iterate", None)
    return solve_eigen(
        P,
        tol=tol,
        max_iter=10_000 if max_iter is None else max_iter,
        x0=x0,
        monitor=monitor,
        **kwargs,
    )


def subdominant_eigenvalue(
    P: sp.csr_matrix, tol: float = 1e-8, max_iter: int = 20_000
) -> Tuple[complex, float]:
    """The second-largest-modulus eigenvalue of ``P`` and the mixing gap.

    Returns ``(lambda_2, 1 - |lambda_2|)``.  A gap near zero signals a
    stiff chain: power/Jacobi iteration counts scale as ``1 / gap`` while
    multigrid cycle counts do not -- this is the diagnostic behind the
    paper's choice of solver.
    """
    n = P.shape[0]
    if n < 4:
        w = np.linalg.eigvals(P.toarray())
        w = w[np.argsort(-np.abs(w))]
        lam2 = complex(w[1]) if w.size > 1 else 0.0j
        return lam2, 1.0 - abs(lam2)
    vals = eigs(P.T.tocsc(), k=2, which="LM", maxiter=max_iter, tol=tol,
                return_eigenvectors=False)
    vals = vals[np.argsort(-np.abs(vals))]
    lam2 = complex(vals[1])
    return lam2, 1.0 - abs(lam2)
