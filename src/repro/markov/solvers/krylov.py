"""Krylov-subspace solution of the stationary equations.

The paper mentions that aggregation/disaggregation can accelerate "possibly
the Krylov subspace methods"; here GMRES / BiCGStab from scipy are applied
to the augmented nonsingular system (one stationary equation replaced by the
normalization), optionally preconditioned.

Preconditioners:

``"auto"`` (default)
    ILU when the matrix is assembled; AMG when it is not but exposes
    ``triplets()`` (all the AMG preconditioner reads); none otherwise.
    Unpreconditioned GMRES can stall on drift-dominated chains (a
    bang-bang frequency detector ran 5,000 iterations without
    converging), so a matrix-free operator gets the hierarchy whenever
    it can build one.
``"ilu"``
    Incomplete-LU right preconditioning.  Needs the assembled matrix:
    requesting it explicitly on a matrix-free operator raises a typed
    :class:`~repro.markov.linop.OperatorCapabilityError` (it used to be
    silently skipped, which made matrix-free solves look mysteriously
    slower instead of failing loudly).
``"amg"``
    One V-cycle of an aggregation hierarchy
    (:class:`~repro.markov.context.AMGPreconditioner`), fully
    matrix-free.  Pass ``hierarchy=`` a prebuilt
    :class:`~repro.markov.context.CoarseningHierarchy` or a
    :class:`~repro.markov.context.SolveContext` (whose cache then makes
    repeated solves of one structure pay the hierarchy build once);
    omitted, a hierarchy is built on the spot.
``None``
    Unpreconditioned.

Matrix-free capable: for an unassembled
:class:`~repro.markov.linop.TransitionOperator` the augmented system is
applied as ``y = x - P^T x`` with the last entry overwritten by ``sum(x)``
-- no matrix is formed.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab, gmres, spilu

from repro.markov.linop import (
    AssembledOperator,
    OperatorCapabilityError,
    as_operator,
    operator_residual,
    operator_rmatmat,
)
from repro.markov.monitor import SolverMonitor, instrument
from repro.markov.registry import register_solver
from repro.markov.solvers.direct import augmented_system
from repro.markov.solvers.result import StationaryResult, prepare_initial_guess

__all__ = ["solve_krylov"]

_PRECONDITIONERS = (None, "auto", "ilu", "amg")


def _amg_preconditioner(op, hierarchy, weights):
    """Resolve the ``hierarchy`` argument into an AMG ``M`` operator."""
    from repro.markov.context import (
        AMGPreconditioner,
        CoarseningHierarchy,
        SolveContext,
        build_hierarchy,
    )

    if hierarchy is None:
        hierarchy = build_hierarchy(op)
    elif isinstance(hierarchy, SolveContext):
        hierarchy = hierarchy.hierarchy_for(op)
    elif not isinstance(hierarchy, CoarseningHierarchy):
        raise TypeError(
            "hierarchy must be a CoarseningHierarchy or SolveContext, "
            f"got {type(hierarchy).__name__}"
        )
    return AMGPreconditioner(op, hierarchy, weights=weights)


def solve_krylov(
    P,
    tol: float = 1e-10,
    max_iter: int = 5_000,
    x0: Optional[np.ndarray] = None,
    variant: str = "gmres",
    preconditioner: Optional[str] = "auto",
    restart: int = 50,
    monitor: Optional[SolverMonitor] = None,
    on_iterate=None,
    hierarchy=None,
) -> StationaryResult:
    """Solve the augmented system with GMRES or BiCGStab.

    Parameters
    ----------
    variant:
        ``"gmres"`` (default) or ``"bicgstab"``.
    preconditioner:
        ``"auto"`` (ILU when assembled, AMG when unassembled with
        ``triplets()``, none otherwise), ``"ilu"``, ``"amg"`` (one
        hierarchy V-cycle, matrix-free capable) or ``None``.  ILU can
        fail on highly structured singular-ish systems; in that case the
        solver transparently retries unpreconditioned.  Explicit ``"ilu"`` on a matrix-free operator
        raises :class:`~repro.markov.linop.OperatorCapabilityError`.
    restart:
        GMRES restart length.
    hierarchy:
        For an AMG preconditioner (explicit or resolved from
        ``"auto"``): a prebuilt
        :class:`~repro.markov.context.CoarseningHierarchy` or a
        :class:`~repro.markov.context.SolveContext`; built fresh when
        omitted.
    monitor:
        Optional :class:`~repro.markov.monitor.SolverMonitor`.  One event
        per scipy callback (each GMRES restart cycle / each BiCGStab
        iteration) with the true stationary residual of the normalized
        snapshot, plus one final event after the solve.  ``iterations`` on
        the result equals the number of recorded events.
    """
    if variant not in ("gmres", "bicgstab"):
        raise ValueError(f"unknown Krylov variant {variant!r}")
    if preconditioner not in _PRECONDITIONERS:
        raise ValueError(
            f"unknown preconditioner {preconditioner!r}; "
            f"expected one of {_PRECONDITIONERS}"
        )
    op = as_operator(P)
    n = op.shape[0]
    assembled = isinstance(op, AssembledOperator)
    resolved = preconditioner
    if resolved == "auto":
        if assembled:
            resolved = "ilu"
        elif callable(getattr(op, "triplets", None)):
            resolved = "amg"
        else:
            resolved = None
    if resolved == "ilu" and not assembled:
        raise OperatorCapabilityError(
            f"{type(op).__name__} cannot be ILU-preconditioned: ILU "
            "factorization needs the assembled sparsity pattern.  Use "
            "preconditioner='amg' (matrix-free) or None"
        )
    x_init = prepare_initial_guess(n, x0)
    b = np.zeros(n)
    b[n - 1] = 1.0

    M = None
    suffix = ""
    if assembled:
        A = augmented_system(op.P).tocsc()
        if resolved == "ilu":
            try:
                ilu = spilu(A, drop_tol=1e-5, fill_factor=10)
                M = LinearOperator((n, n), matvec=ilu.solve)
                suffix = "+ilu"
            except RuntimeError:
                M = None
        A_op = LinearOperator((n, n), matvec=A.dot, matmat=A.dot)
    else:
        def apply_augmented(v: np.ndarray) -> np.ndarray:
            v = np.asarray(v, dtype=float)
            y = v - op.rmatvec(v)
            y[n - 1] = v.sum()
            return y

        def apply_augmented_block(V: np.ndarray) -> np.ndarray:
            V = np.asarray(V, dtype=float)
            Y = V - operator_rmatmat(op, V)
            Y[n - 1, :] = V.sum(axis=0)
            return Y

        A_op = LinearOperator(
            (n, n), matvec=apply_augmented, matmat=apply_augmented_block
        )

    if resolved == "amg":
        amg = _amg_preconditioner(op, hierarchy, weights=x_init)
        M = amg.as_linear_operator()
        suffix = "+amg"

    method = f"krylov-{variant}{suffix}"
    recorder, mon = instrument(method, n, tol, monitor)
    start = time.perf_counter()

    def snapshot_residual(v: np.ndarray) -> float:
        v = np.clip(np.asarray(v, dtype=float), 0.0, None)
        total = v.sum()
        if total <= 0:
            return float("inf")
        return operator_residual(op, v / total)

    def on_snapshot(xk: np.ndarray) -> None:
        if on_iterate is not None:
            v = np.clip(np.asarray(xk, dtype=float), 0.0, None)
            total = v.sum()
            if total > 0:
                on_iterate(recorder.n_iterations + 1, v / total)
        mon.iteration_finished(
            recorder.n_iterations + 1,
            snapshot_residual(xk),
            time.perf_counter() - start,
        )

    if variant == "gmres":
        x, info = gmres(
            A_op, b, x0=x_init, rtol=tol, atol=0.0, maxiter=max_iter,
            restart=restart, M=M, callback=on_snapshot, callback_type="x",
        )
    else:
        x, info = bicgstab(
            A_op, b, x0=x_init, rtol=tol, atol=0.0, maxiter=max_iter, M=M,
            callback=on_snapshot,
        )

    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    total = x.sum()
    if total <= 0:
        raise ArithmeticError(f"{variant} produced a zero stationary vector")
    x /= total
    res = operator_residual(op, x)
    elapsed = time.perf_counter() - start
    mon.iteration_finished(recorder.n_iterations + 1, res, elapsed)
    mon.solve_finished(info == 0, recorder.n_iterations, res, elapsed)
    return StationaryResult(
        distribution=x,
        iterations=recorder.n_iterations,
        residual=res,
        converged=(info == 0),
        method=method,
        residual_history=recorder.residual_history,
        solve_time=elapsed,
        recording=recorder,
    )


@register_solver(
    "krylov",
    matrix_free=True,
    description="GMRES/BiCGStab on the augmented system (ILU/AMG "
    "preconditioning)",
    default_max_iter=5_000,
    fallback_priority=20,
)
def _dispatch_krylov(P, *, tol=1e-10, max_iter=None, x0=None, monitor=None, **kwargs):
    context = kwargs.pop("context", None)
    hierarchy = kwargs.pop("hierarchy", None)
    if context is not None and hierarchy is None:
        hierarchy = context
    return solve_krylov(
        P,
        tol=tol,
        max_iter=5_000 if max_iter is None else max_iter,
        x0=x0,
        monitor=monitor,
        variant=kwargs.pop("variant", "gmres"),
        preconditioner=kwargs.pop("preconditioner", "auto"),
        hierarchy=hierarchy,
        **kwargs,
    )
