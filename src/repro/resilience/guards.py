"""Numerical guards: watch every solver iterate, diagnose instead of drift.

The existing :class:`~repro.markov.monitor.SolverMonitor` hook already sees
every iteration of every stationary solver; :class:`GuardedMonitor` rides
that stream and raises a typed diagnosis (:mod:`repro.resilience.errors`)
the moment the iteration goes wrong:

* a non-finite residual -> :class:`NumericalContamination`;
* residual growing ``divergence_factor`` x beyond the best seen ->
  :class:`SolverDiverged`;
* no relative improvement over a sliding ``stagnation_window`` while still
  above tolerance -> :class:`SolverStagnated`;
* wall-clock over ``wall_clock_budget`` -> :class:`BudgetExceeded`.

:func:`guarded_solve` wraps :func:`repro.markov.stationary.stationary_distribution`
with the monitor plus the checks a per-iteration stream cannot express:
operator row-sum drift before the solve, and non-finite values / negative
probability mass / an exhausted iteration budget on the returned result.
All checks are float comparisons per iteration, so the happy-path overhead
is unmeasurable next to a matvec (the acceptance test in
``tests/obs/test_overhead.py`` holds the pipeline to < 5%).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.markov.monitor import SolverMonitor, VCycleLevelEvent
from repro.resilience.errors import (
    BudgetExceeded,
    NumericalContamination,
    SolverDiverged,
    SolverStagnated,
)

__all__ = ["GuardPolicy", "GuardedMonitor", "check_operator", "check_result", "guarded_solve"]


@dataclass(frozen=True)
class GuardPolicy:
    """Thresholds for the per-iteration and pre/post solve guards.

    Attributes
    ----------
    stagnation_window:
        Number of iterations over which *some* relative residual
        improvement is required (compared against the residual that many
        iterations ago).  0 disables the stagnation guard.  The default is
        deliberately wide: power iteration from a uniform guess sits on a
        near-flat residual plateau for ~100 iterations before its
        asymptotic decay kicks in, and a healthy solve must never be
        diagnosed as stagnated.
    stagnation_rtol:
        Minimum relative improvement over the window: the solve is
        declared stagnated when
        ``residual >= (1 - stagnation_rtol) * residual[window ago]``
        while still above tolerance.
    divergence_factor:
        Residual exceeding ``divergence_factor * best_residual`` (after
        ``divergence_grace`` iterations) is divergence.  0 disables.
    divergence_grace:
        Iterations before the divergence guard arms (early iterations of
        restarted methods wobble legitimately).
    wall_clock_budget:
        Optional per-solve wall-clock budget in seconds.
    row_sum_tol:
        Allowed drift of operator row sums from 1 in the pre-solve check.
    mass_tol:
        Allowed negative mass / normalization drift on the final vector.
    """

    stagnation_window: int = 250
    stagnation_rtol: float = 1e-3
    divergence_factor: float = 1e4
    divergence_grace: int = 10
    wall_clock_budget: Optional[float] = None
    row_sum_tol: float = 1e-8
    mass_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.stagnation_window < 0:
            raise ValueError("stagnation_window must be non-negative")
        if not 0.0 < self.stagnation_rtol < 1.0:
            raise ValueError("stagnation_rtol must be in (0, 1)")
        if self.divergence_factor < 0:
            raise ValueError("divergence_factor must be non-negative")
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0:
            raise ValueError("wall_clock_budget must be positive")


class GuardedMonitor:
    """A :class:`SolverMonitor` that diagnoses the event stream in flight.

    Tees every event to an optional ``inner`` monitor *first* (so the
    telemetry trail survives the abort), then applies the guard policy and
    raises from inside ``iteration_finished`` -- which unwinds the solver's
    iteration loop immediately instead of letting it burn the rest of
    ``max_iter`` on garbage.
    """

    def __init__(
        self,
        policy: Optional[GuardPolicy] = None,
        inner: Optional[SolverMonitor] = None,
    ) -> None:
        self.policy = policy or GuardPolicy()
        self.inner = inner
        self.method: Optional[str] = None
        self.tol: float = 0.0
        self.history: List[float] = []
        self.best_residual: float = math.inf

    # -- SolverMonitor protocol ---------------------------------------- #

    def solve_started(self, method: str, n_states: int, tol: float) -> None:
        if self.inner is not None:
            self.inner.solve_started(method, n_states, tol)
        self.method = method
        self.tol = tol

    def vcycle_level(self, event: VCycleLevelEvent) -> None:
        if self.inner is not None:
            self.inner.vcycle_level(event)

    def solve_finished(
        self, converged: bool, iterations: int, residual: float, elapsed: float
    ) -> None:
        if self.inner is not None:
            self.inner.solve_finished(converged, iterations, residual, elapsed)

    def iteration_finished(
        self, iteration: int, residual: float, elapsed: float
    ) -> None:
        if self.inner is not None:
            self.inner.iteration_finished(iteration, residual, elapsed)
        pol = self.policy
        if not math.isfinite(residual):
            raise NumericalContamination(
                f"{self.method}: non-finite residual {residual!r} at "
                f"iteration {iteration} -- NaN/inf contaminated the iterate",
                method=self.method, iteration=iteration, residual=residual,
            )
        self.history.append(residual)
        if residual < self.best_residual:
            self.best_residual = residual
        if (
            pol.divergence_factor
            and iteration > pol.divergence_grace
            and self.best_residual > 0
            and residual > pol.divergence_factor * self.best_residual
        ):
            raise SolverDiverged(
                f"{self.method}: residual {residual:.3e} at iteration "
                f"{iteration} is {residual / self.best_residual:.1e}x the "
                f"best seen ({self.best_residual:.3e}) -- iteration is "
                "diverging",
                method=self.method, iteration=iteration, residual=residual,
            )
        window = pol.stagnation_window
        if window and len(self.history) > window and residual >= self.tol:
            ref = self.history[-(window + 1)]
            if ref > 0 and residual >= (1.0 - pol.stagnation_rtol) * ref:
                raise SolverStagnated(
                    f"{self.method}: residual stuck at {residual:.3e} "
                    f"(was {ref:.3e} {window} iterations ago, tolerance "
                    f"{self.tol:.1e}) -- no meaningful progress",
                    method=self.method, iteration=iteration, residual=residual,
                )
        budget = pol.wall_clock_budget
        if budget is not None and elapsed > budget:
            raise BudgetExceeded(
                f"{self.method}: wall-clock budget of {budget:g}s exhausted "
                f"at iteration {iteration} ({elapsed:.1f}s elapsed, residual "
                f"{residual:.3e})",
                budget="wall_clock", limit=budget, observed=elapsed,
                method=self.method, iteration=iteration, residual=residual,
            )


def check_operator(op, policy: Optional[GuardPolicy] = None) -> None:
    """Pre-solve sanity: row sums of the transition operator near one.

    A zero row (a state with no outgoing probability) or general row-sum
    drift means the "transition matrix" is not stochastic; every solver
    downstream would return garbage or hang, so fail here with a
    :class:`NumericalContamination` naming the worst offender.
    """
    policy = policy or GuardPolicy()
    sums = np.asarray(op.row_sums(), dtype=float)
    if not np.all(np.isfinite(sums)):
        bad = int(np.flatnonzero(~np.isfinite(sums))[0])
        raise NumericalContamination(
            f"transition operator has a non-finite row sum at state {bad}"
        )
    drift = np.abs(sums - 1.0)
    worst = int(np.argmax(drift))
    if drift[worst] > policy.row_sum_tol:
        detail = "a zero row" if sums[worst] == 0.0 else "row-sum drift"
        raise NumericalContamination(
            f"transition operator is not stochastic: {detail} at state "
            f"{worst} (row sum {sums[worst]!r}, allowed drift "
            f"{policy.row_sum_tol:g})"
        )


def check_result(result, policy: Optional[GuardPolicy] = None) -> None:
    """Post-solve sanity on a :class:`StationaryResult`.

    Raises :class:`NumericalContamination` for non-finite entries or
    negative probability mass beyond ``mass_tol``, and
    :class:`BudgetExceeded` when the solver ran out of iterations without
    converging (the "looped to max_iter" failure the guards exist to make
    loud).
    """
    policy = policy or GuardPolicy()
    x = result.distribution
    if not np.all(np.isfinite(x)):
        raise NumericalContamination(
            f"{result.method}: stationary vector contains non-finite "
            "entries",
            method=result.method, iteration=result.iterations,
            residual=result.residual,
        )
    neg = float(-np.minimum(x, 0.0).sum())
    if neg > policy.mass_tol:
        raise NumericalContamination(
            f"{result.method}: stationary vector carries negative "
            f"probability mass {neg:.3e} (allowed {policy.mass_tol:g})",
            method=result.method, iteration=result.iterations,
            residual=result.residual,
        )
    if not result.converged:
        raise BudgetExceeded(
            f"{result.method}: iteration budget exhausted after "
            f"{result.iterations} iterations at residual "
            f"{result.residual:.3e} without converging",
            budget="iterations", limit=result.iterations,
            observed=result.iterations, method=result.method,
            iteration=result.iterations, residual=result.residual,
        )


def guarded_solve(
    chain,
    method: str = "auto",
    *,
    guard: Optional[GuardPolicy] = None,
    monitor: Optional[SolverMonitor] = None,
    precheck: bool = True,
    **solve_kwargs,
):
    """A guarded :func:`~repro.markov.stationary.stationary_distribution`.

    Same signature and return value, but the solve runs under a
    :class:`GuardedMonitor` and is bracketed by :func:`check_operator` /
    :func:`check_result`: instead of looping to ``max_iter`` or returning
    a contaminated vector, the solve raises one of the typed diagnoses of
    :mod:`repro.resilience.errors`.

    Pass ``precheck=False`` to skip the row-sum scan (e.g. when the
    operator was just validated, or row sums are expensive to compute).
    """
    from repro.markov.linop import as_operator
    from repro.markov.stationary import stationary_distribution

    guard = guard or GuardPolicy()
    op = as_operator(chain)
    if precheck:
        check_operator(op, guard)
    guarded = GuardedMonitor(guard, inner=monitor)
    start = time.perf_counter()
    result = stationary_distribution(
        op, method=method, monitor=guarded, **solve_kwargs
    )
    # Direct/eigen solves emit a single event, so the in-flight wall-clock
    # guard may never fire; enforce the budget on the way out too.
    if (
        guard.wall_clock_budget is not None
        and time.perf_counter() - start > guard.wall_clock_budget
    ):
        raise BudgetExceeded(
            f"{result.method}: wall-clock budget of "
            f"{guard.wall_clock_budget:g}s exhausted",
            budget="wall_clock", limit=guard.wall_clock_budget,
            observed=time.perf_counter() - start, method=result.method,
            iteration=result.iterations, residual=result.residual,
        )
    check_result(result, guard)
    return result
