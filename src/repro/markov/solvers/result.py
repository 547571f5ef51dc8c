"""Common result type and helpers shared by all stationary solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from repro.markov.monitor import RecordingMonitor

__all__ = [
    "StationaryResult",
    "residual_norm",
    "prepare_initial_guess",
    "iterate_fixed_point",
]


def residual_norm(P: sp.csr_matrix, x: np.ndarray) -> float:
    """1-norm residual ``||x P - x||_1`` of a candidate stationary vector."""
    return float(np.abs(P.T.dot(x) - x).sum())


def prepare_initial_guess(n: int, x0: Optional[np.ndarray]) -> np.ndarray:
    """Validate/normalize an initial guess, defaulting to uniform."""
    if x0 is None:
        return np.full(n, 1.0 / n)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"initial guess must have shape ({n},), got {x.shape}")
    if np.any(x < 0):
        raise ValueError("initial guess must be non-negative")
    total = x.sum()
    if total <= 0:
        raise ValueError("initial guess must have positive mass")
    return x / total


def iterate_fixed_point(
    n: int,
    step: Callable[[np.ndarray], np.ndarray],
    residual_fn: Callable[[np.ndarray], float],
    *,
    method: str,
    tol: float,
    max_iter: int,
    x0: Optional[np.ndarray] = None,
    monitor=None,
    on_iterate: Optional[Callable[[int, np.ndarray], None]] = None,
) -> "StationaryResult":
    """Shared driver for normalized fixed-point stationary iterations.

    Power iteration, weighted Jacobi, Gauss-Seidel and SOR (and formerly
    the CDR operator's private power loop) all share the same skeleton:
    prepare a guess, repeatedly apply a normalizing sweep, measure
    ``||x P - x||_1``, emit one monitor event per iteration, and stop at
    ``tol``.  This function is that skeleton, so every solver built on it
    reports iterations/residual/history through the same
    :class:`~repro.markov.monitor.RecordingMonitor` invariants
    (``iterations == len(events)``, ``residual == events[-1].residual``).

    Parameters
    ----------
    n:
        State count (sets the uniform default guess).
    step:
        ``step(x) -> x'``: one sweep, returning the next *normalized*
        iterate (must not mutate its argument's meaning for the caller).
    residual_fn:
        ``residual_fn(x') -> float``: the stationary residual of an
        iterate, conventionally ``||x' P - x'||_1``.
    method:
        Solver name recorded in the result and the telemetry trace.
    on_iterate:
        Optional ``on_iterate(iteration, x)`` hook called with each new
        iterate *before* the monitor event -- the attachment point for
        periodic checkpointing
        (:class:`repro.resilience.checkpoint.SolverCheckpointer`).

    Raises
    ------
    repro.resilience.errors.NumericalContamination
        The moment an iterate turns non-finite: a NaN/inf iterate can
        never recover, so burning the remaining ``max_iter`` sweeps on it
        would only waste hours and then return garbage.
    """
    from repro.markov.monitor import instrument

    x = prepare_initial_guess(n, x0)
    recorder, mon = instrument(method, n, tol, monitor)
    start = time.perf_counter()
    converged = False
    for iteration in range(1, max_iter + 1):
        x = step(x)
        if not np.all(np.isfinite(x)):
            from repro.resilience.errors import NumericalContamination

            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            res = float("nan")
            mon.iteration_finished(iteration, res, time.perf_counter() - start)
            raise NumericalContamination(
                f"{method}: iterate turned non-finite at iteration "
                f"{iteration} (first bad entry at state {bad})",
                method=method, iteration=iteration, residual=res,
            )
        if on_iterate is not None:
            on_iterate(iteration, x)
        res = float(residual_fn(x))
        mon.iteration_finished(iteration, res, time.perf_counter() - start)
        if res < tol:
            converged = True
            break
    elapsed = time.perf_counter() - start
    residual = recorder.last_residual()
    if residual is None:
        residual = float(residual_fn(x))
    mon.solve_finished(converged, recorder.n_iterations, residual, elapsed)
    return StationaryResult(
        distribution=x,
        iterations=recorder.n_iterations,
        residual=residual,
        converged=converged,
        method=method,
        residual_history=recorder.residual_history,
        solve_time=elapsed,
        recording=recorder,
    )


@dataclass
class StationaryResult:
    """Outcome of a stationary-distribution computation.

    Attributes
    ----------
    distribution:
        The stationary row vector ``eta`` (non-negative, sums to one).
    iterations:
        Iteration count in the solver's natural unit (sweeps for the
        stationary iterative methods, V-cycles for multigrid, monitor
        events for Krylov -- one per restart/iteration snapshot plus a
        final event -- and 1 for direct/eigen).
    residual:
        Final ``||eta P - eta||_1``.
    converged:
        Whether the requested tolerance was reached.
    method:
        Human-readable solver name (appears in benchmark tables).
    residual_history:
        Residual after each iteration.  Since the telemetry refactor this
        is derived from the solver's internal
        :class:`~repro.markov.monitor.RecordingMonitor`, so
        ``len(residual_history) == iterations`` and
        ``residual_history[-1] == residual`` hold for every solver
        (direct/eigen solves record a single entry).
    solve_time:
        Wall-clock seconds spent inside the solver.
    warm_started:
        Whether the solve started from a reused stationary vector rather
        than the uniform guess (set by the solve-context layer; solvers
        themselves leave it False).
    recombinations:
        Top-level iterate recombinations the solve accepted (multigrid
        only; 0 for every other solver).
    recording:
        The solver's own :class:`~repro.markov.monitor.RecordingMonitor`:
        every event of the solve, exportable as a ``repro.solver-trace/1``
        trace (``None`` for a solver that records none).
    """

    distribution: np.ndarray
    iterations: int
    residual: float
    converged: bool
    method: str
    residual_history: List[float] = field(default_factory=list)
    solve_time: float = 0.0
    warm_started: bool = False
    recombinations: int = 0
    recording: Optional["RecordingMonitor"] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.distribution = np.asarray(self.distribution, dtype=float)

    @property
    def n_states(self) -> int:
        return self.distribution.size

    def convergence_rate(self) -> Optional[float]:
        """Geometric-mean per-iteration residual reduction factor.

        Contract: returns ``None`` whenever a rate cannot be estimated --
        that is, when fewer than two *positive* residuals were recorded.
        This covers empty histories, the single-entry histories of
        direct/eigen/one-iteration solves (a lone positive residual carries
        no rate information), and histories that are all exact zeros.
        Zero entries are filtered out before the geometric mean so a solve
        that bottoms out at 0.0 cannot divide by zero or return 0.
        """
        h = [r for r in self.residual_history if r > 0]
        if len(h) < 2:
            return None
        return float((h[-1] / h[0]) ** (1.0 / (len(h) - 1)))

    def require_converged(self) -> "StationaryResult":
        """This result, if the solve reached its tolerance.

        Code that turns the distribution into a measure calls this, so an
        unconverged iterate never reaches one.  Otherwise raises
        :class:`~repro.resilience.errors.SolverFailure` carrying
        ``method``, ``iteration`` and ``residual``; callers that want
        recovery route the solve through the resilient fallback chain.
        """
        if not self.converged:
            from repro.resilience.errors import SolverFailure

            raise SolverFailure(
                f"{self.method} did not converge: stopped after "
                f"{self.iterations} iterations at residual "
                f"{self.residual:.3e}",
                method=self.method,
                iteration=self.iterations,
                residual=self.residual,
            )
        return self

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"{self.method}: {status} in {self.iterations} iterations, "
            f"residual {self.residual:.3e}, {self.solve_time:.3f}s"
        )
