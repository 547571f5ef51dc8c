"""Declarative solver-fallback escalation built on the solver registry.

A :class:`FallbackPolicy` is an ordered chain of :class:`FallbackStep`\\ s
(method + per-attempt iteration / wall-clock budgets).  The default chain
is derived from :mod:`repro.markov.registry` capability metadata -- each
registered solver may declare a ``fallback_priority``; the chain is those
solvers in priority order, filtered to what the operator can support
(matrix-free operators drop solvers that need the assembled matrix, and
the direct LU terminal fallback is only admitted below an assembly-size
cutoff).

:func:`resilient_stationary` walks the chain under the numerical guards of
:mod:`repro.resilience.guards`:

* every attempt runs with per-attempt budgets and raises a typed diagnosis
  instead of looping;
* a :class:`~repro.resilience.errors.SolverStagnated` diagnosis first
  triggers one retry of the *same* method from a perturbed initial vector
  (stagnation is often a bad starting subspace, not a bad method);
* any other failure escalates to the next method in the chain;
* an exceeded memory budget (peak RSS, mirrored to the
  ``repro_peak_rss_bytes`` obs gauge) aborts with
  :class:`~repro.resilience.errors.BudgetExceeded` so the caller (the
  analyzer) can degrade to a matrix-free backend instead;
* every attempt is recorded as a structured :class:`AttemptRecord` -- the
  trail the ``repro.run-trace/1`` manifest embeds and ``repro stats``
  prints.

When the whole chain fails, :class:`~repro.resilience.errors.FallbackExhausted`
carries the full trail.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.markov.linop import OperatorCapabilityError, as_operator
from repro.markov.monitor import SolverMonitor
from repro.markov.registry import solver_table
from repro.resilience.checkpoint import SolverCheckpointer, load_solver_checkpoint
from repro.resilience.errors import (
    BudgetExceeded,
    CheckpointMismatch,
    FallbackExhausted,
    SolverFailure,
    SolverStagnated,
)
from repro.resilience.guards import GuardPolicy, guarded_solve

__all__ = [
    "FallbackStep",
    "FallbackPolicy",
    "AttemptRecord",
    "ResilientSolveOutcome",
    "resilient_stationary",
]

#: States above which the direct LU terminal fallback is not admitted into
#: a default chain (assembling + factoring would dwarf the iterative cost).
_DIRECT_FALLBACK_CUTOFF = 50_000


@dataclass(frozen=True)
class FallbackStep:
    """One method in an escalation chain, with its per-attempt budgets."""

    method: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    max_iter: Optional[int] = None
    wall_clock_budget: Optional[float] = None


@dataclass(frozen=True)
class FallbackPolicy:
    """Declarative escalation: which methods to try, with which budgets.

    Attributes
    ----------
    steps:
        The escalation chain, tried in order.
    guard:
        Numerical-guard thresholds applied to every attempt
        (per-step ``wall_clock_budget`` overrides the guard's).
    retry_perturbed:
        Retry a stagnated method once from a perturbed initial vector
        before escalating.
    perturbation_scale:
        Relative magnitude of the (deterministic, seeded) multiplicative
        perturbation applied to the initial guess on such retries.
    perturbation_seed:
        Seed of the perturbation RNG, recorded so retries reproduce.
    memory_budget_bytes:
        Optional peak-RSS ceiling checked before every attempt; exceeding
        it raises ``BudgetExceeded(budget="memory")`` immediately (more
        methods cannot un-allocate memory -- the caller must degrade the
        backend instead).
    """

    steps: Tuple[FallbackStep, ...]
    guard: GuardPolicy = GuardPolicy()
    retry_perturbed: bool = True
    perturbation_scale: float = 1e-3
    perturbation_seed: int = 0
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a FallbackPolicy needs at least one step")
        if self.perturbation_scale <= 0:
            raise ValueError("perturbation_scale must be positive")

    @classmethod
    def from_registry(
        cls,
        operator=None,
        *,
        guard: Optional[GuardPolicy] = None,
        first_method: Optional[str] = None,
        first_kwargs: Optional[Dict[str, Any]] = None,
        **policy_kwargs,
    ) -> "FallbackPolicy":
        """Build the default chain from solver-registry capability metadata.

        Solvers that declared a ``fallback_priority`` at registration are
        ordered by it (multigrid -> krylov -> power -> direct).  Solvers
        that need the assembled matrix are dropped for operators without
        ``to_csr``; the direct terminal fallback is additionally dropped
        above ``{cutoff}`` states.  ``first_method`` pins the head of the
        chain (the method the caller actually wanted), with
        ``first_kwargs`` forwarded to that attempt only.
        """
        can_assemble = True
        n = None
        if operator is not None:
            op = as_operator(operator)
            n = op.shape[0]
            can_assemble = hasattr(op, "to_csr")
        ranked = sorted(
            (e for e in solver_table() if e.fallback_priority is not None),
            key=lambda e: e.fallback_priority,
        )
        steps: List[FallbackStep] = []
        if first_method is not None:
            steps.append(
                FallbackStep(first_method, kwargs=dict(first_kwargs or {}))
            )
        for entry in ranked:
            if any(s.method == entry.name for s in steps):
                continue
            if not entry.matrix_free and not can_assemble:
                continue
            if entry.name == "direct" and n is not None and n > _DIRECT_FALLBACK_CUTOFF:
                continue
            steps.append(FallbackStep(entry.name, max_iter=entry.default_max_iter))
        if not steps:
            raise ValueError(
                "no registered solver is eligible for a fallback chain on "
                "this operator"
            )
        return cls(steps=tuple(steps), guard=guard or GuardPolicy(), **policy_kwargs)

    if from_registry.__func__.__doc__:
        from_registry.__func__.__doc__ = from_registry.__func__.__doc__.format(
            cutoff=_DIRECT_FALLBACK_CUTOFF
        )


@dataclass
class AttemptRecord:
    """One solve attempt in an escalation chain (structured event)."""

    method: str
    status: str  # "converged" | "failed"
    error_type: Optional[str] = None
    message: Optional[str] = None
    iterations: Optional[int] = None
    residual: Optional[float] = None
    wall_seconds: float = 0.0
    perturbed_x0: bool = False
    #: The attempt started from a warm vector -- either a solve-context
    #: solution of a structurally identical chain, or the last finite
    #: iterate of the previous (failed) attempt in this chain.
    warm_x0: bool = False

    def to_event(self) -> Dict[str, Any]:
        return {
            "event": "solver_attempt",
            "method": self.method,
            "status": self.status,
            "error_type": self.error_type,
            "message": self.message,
            "iterations": self.iterations,
            "residual": self.residual,
            "wall_seconds": self.wall_seconds,
            "perturbed_x0": self.perturbed_x0,
            "warm_x0": self.warm_x0,
        }


@dataclass
class ResilientSolveOutcome:
    """What :func:`resilient_stationary` returns.

    ``result`` is the converged
    :class:`~repro.markov.solvers.result.StationaryResult`; ``attempts``
    is the full trail including the failures that were escalated past.
    """

    result: Any
    attempts: List[AttemptRecord]
    checkpoint_saves: int = 0
    resumed_from_iteration: Optional[int] = None

    @property
    def method(self) -> str:
        return self.result.method

    @property
    def escalations(self) -> int:
        """How many failed attempts preceded the converged one."""
        return len(self.attempts) - 1

    def events(self) -> List[Dict[str, Any]]:
        events = [a.to_event() for a in self.attempts]
        if self.resumed_from_iteration is not None:
            events.insert(0, {
                "event": "checkpoint_resume",
                "iteration": self.resumed_from_iteration,
            })
        return events


def _perturbed_guess(n: int, x0: Optional[np.ndarray], policy: FallbackPolicy) -> np.ndarray:
    base = np.full(n, 1.0 / n) if x0 is None else np.asarray(x0, dtype=float)
    rng = np.random.default_rng(policy.perturbation_seed)
    x = base * (1.0 + policy.perturbation_scale * rng.uniform(-1.0, 1.0, size=n))
    x = np.clip(x, 1e-300, None)
    return x / x.sum()


def _check_memory_budget(policy: FallbackPolicy, method: str) -> None:
    if policy.memory_budget_bytes is None:
        return
    from repro.obs import get_registry
    from repro.obs.manifest import peak_rss_bytes

    rss = peak_rss_bytes()
    if rss is None:
        return
    get_registry().gauge(
        "repro_peak_rss_bytes", "Peak resident set size of the process"
    ).set(float(rss))
    if rss > policy.memory_budget_bytes:
        raise BudgetExceeded(
            f"peak RSS {rss / 1e6:.1f} MB exceeds the memory budget of "
            f"{policy.memory_budget_bytes / 1e6:.1f} MB before the "
            f"{method!r} attempt; degrade to a matrix-free backend or "
            "raise the budget",
            budget="memory", limit=float(policy.memory_budget_bytes),
            observed=float(rss), method=method,
        )


def resilient_stationary(
    chain,
    policy: Optional[FallbackPolicy] = None,
    *,
    tol: float = 1e-10,
    x0: Optional[np.ndarray] = None,
    monitor: Optional[SolverMonitor] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: int = 25,
    resume: bool = False,
    solve_context=None,
) -> ResilientSolveOutcome:
    """Solve for the stationary vector with guards, fallback and checkpoints.

    Parameters
    ----------
    chain:
        Anything :func:`repro.markov.linop.as_operator` accepts.
    policy:
        The escalation chain; defaults to
        :meth:`FallbackPolicy.from_registry` for this operator.
    tol, x0, monitor:
        As for :func:`~repro.markov.stationary.stationary_distribution`;
        the monitor sees every attempt's telemetry (fresh ``solve_started``
        per attempt).  The winning attempt's own recording is on the
        result (``outcome.result.recording``).
    checkpoint_path:
        When given, the winning attempt's iterates are snapshotted there
        every ``checkpoint_interval`` iterations
        (:class:`~repro.resilience.checkpoint.SolverCheckpointer`).
    resume:
        Load ``checkpoint_path`` (when it exists) and seed ``x0`` from the
        snapshot; a checkpoint for a different operator size raises
        :class:`~repro.resilience.errors.CheckpointMismatch`.
    solve_context:
        Optional :class:`~repro.markov.SolveContext`.  Its cached
        coarsening hierarchy feeds multigrid and Krylov+AMG attempts (so
        the second fallback rung is preconditioned instead of cold), a
        remembered solution of a structurally identical chain seeds
        ``x0`` when none was given, and the converged distribution is
        recorded back into the context.  Independently of the context,
        escalation chains the iterate forward: the last finite iterate
        of a failed attempt becomes the next rung's starting vector, so
        later methods inherit the progress already paid for.

    Raises
    ------
    FallbackExhausted
        When every step (and its perturbed retry, where applicable)
        failed; ``exc.attempts`` holds the structured trail.
    BudgetExceeded
        Immediately, when the memory budget is already exceeded (fallback
        cannot recover memory -- the caller must degrade the backend).
    """
    from repro.obs import get_registry, span

    op = as_operator(chain)
    n = op.shape[0]
    if policy is None:
        policy = FallbackPolicy.from_registry(op)

    resumed_iteration: Optional[int] = None
    if resume and checkpoint_path is not None:
        import os

        if os.path.exists(checkpoint_path):
            snapshot = load_solver_checkpoint(checkpoint_path)
            if snapshot.job.get("n_states") not in (None, n):
                raise CheckpointMismatch(
                    f"{checkpoint_path}: checkpoint holds a "
                    f"{snapshot.job.get('n_states')}-state solve, this "
                    f"operator has {n} states"
                )
            x0 = snapshot.vector
            resumed_iteration = snapshot.iteration

    context_warm = False
    if x0 is None and solve_context is not None:
        x0 = solve_context.warm_start_for(op)
        context_warm = x0 is not None

    registry = get_registry()
    attempts_counter = registry.counter(
        "repro_fallback_attempts_total",
        "Solve attempts made by the resilient fallback driver",
    )
    faults_counter = registry.counter(
        "repro_solver_faults_total",
        "Typed solver diagnoses raised under the numerical guards",
    )

    attempts: List[AttemptRecord] = []
    checkpoint_saves = 0
    # Last finite iterate seen by *any* attempt: on escalation it becomes
    # the next rung's starting vector, so a fallback method resumes from
    # the progress the failed one already made instead of restarting cold.
    last_iterate: Dict[str, Optional[np.ndarray]] = {"x": None}

    def _usable_iterate() -> Optional[np.ndarray]:
        x = last_iterate["x"]
        if x is None:
            return None
        x = np.asarray(x, dtype=float)
        if x.shape != (n,) or not np.all(np.isfinite(x)):
            return None
        x = np.clip(x, 0.0, None)
        total = x.sum()
        if total <= 0:
            return None
        return x / total

    def run_attempt(step: FallbackStep, guess, perturbed: bool, warm: bool) -> Any:
        nonlocal checkpoint_saves
        _check_memory_budget(policy, step.method)
        guard = policy.guard
        if step.wall_clock_budget is not None:
            guard = dataclasses.replace(
                guard, wall_clock_budget=step.wall_clock_budget
            )
        kwargs = dict(step.kwargs)
        if solve_context is not None:
            # Feed the cached hierarchy to the methods that can use it.
            # The analyzer may already have put one in the head step's
            # kwargs; setdefault keeps that (and any explicit strategy).
            if step.method == "multigrid" and "strategy" not in kwargs:
                kwargs.setdefault("hierarchy", solve_context.hierarchy_for(op))
            elif step.method == "krylov":
                kwargs.setdefault("preconditioner", "amg")
                kwargs.setdefault("hierarchy", solve_context.hierarchy_for(op))
        checkpointer = None
        if checkpoint_path is not None:
            checkpointer = SolverCheckpointer(
                checkpoint_path,
                interval=checkpoint_interval,
                method=step.method,
                job={"n_states": n},
            )

        def on_iterate(iteration: int, vector: np.ndarray) -> None:
            last_iterate["x"] = vector
            if checkpointer is not None:
                checkpointer(iteration, vector)

        kwargs["on_iterate"] = on_iterate
        start = time.perf_counter()
        with span(
            "resilience.attempt", method=step.method, perturbed_x0=perturbed
        ) as attempt_span:
            try:
                result = guarded_solve(
                    op,
                    method=step.method,
                    guard=guard,
                    monitor=monitor,
                    tol=tol,
                    max_iter=step.max_iter,
                    x0=guess,
                    precheck=not attempts,  # row sums can't change mid-chain
                    **kwargs,
                )
            except (SolverFailure, ArithmeticError, OperatorCapabilityError) as exc:
                wall = time.perf_counter() - start
                attempts.append(AttemptRecord(
                    method=step.method, status="failed",
                    error_type=type(exc).__name__, message=str(exc),
                    iterations=getattr(exc, "iteration", None),
                    residual=getattr(exc, "residual", None),
                    wall_seconds=wall, perturbed_x0=perturbed, warm_x0=warm,
                ))
                attempt_span.set_attributes(
                    status="failed", error=type(exc).__name__
                )
                attempts_counter.inc(method=step.method, status="failed")
                faults_counter.inc(diagnosis=type(exc).__name__)
                if checkpointer is not None:
                    checkpoint_saves += checkpointer.saves
                raise
            wall = time.perf_counter() - start
            attempts.append(AttemptRecord(
                method=step.method, status="converged",
                iterations=result.iterations, residual=result.residual,
                wall_seconds=wall, perturbed_x0=perturbed, warm_x0=warm,
            ))
            attempt_span.set_attributes(
                status="converged", iterations=result.iterations
            )
            attempts_counter.inc(method=step.method, status="converged")
            if checkpointer is not None:
                checkpoint_saves += checkpointer.saves
            return result

    last_error: Optional[BaseException] = None
    guess = x0
    warm = context_warm
    for step in policy.steps:
        try:
            result = run_attempt(step, guess, perturbed=False, warm=warm)
            break
        except BudgetExceeded as exc:
            if exc.budget == "memory":
                raise  # escalating methods cannot recover memory
            last_error = exc
        except SolverStagnated as exc:
            last_error = exc
            if policy.retry_perturbed:
                try:
                    result = run_attempt(
                        step, _perturbed_guess(n, guess, policy),
                        perturbed=True, warm=warm,
                    )
                    break
                except (SolverFailure, ArithmeticError, OperatorCapabilityError) as retry_exc:
                    last_error = retry_exc
        except (SolverFailure, ArithmeticError, OperatorCapabilityError) as exc:
            # ArithmeticError: a sweep annihilated the iterate / singular LU;
            # OperatorCapabilityError: the step needs the assembled matrix
            # on a matrix-free operator.  Both escalate like any failure.
            last_error = exc
        carried = _usable_iterate()
        if carried is not None:
            guess, warm = carried, True
    else:
        registry.counter(
            "repro_fallback_exhausted_total",
            "Resilient solves whose whole fallback chain failed",
        ).inc()
        raise FallbackExhausted(
            f"all {len(policy.steps)} fallback methods failed for the "
            f"{n}-state chain (last: {type(last_error).__name__}: "
            f"{last_error})",
            attempts=[a.to_event() for a in attempts],
        )

    if len(attempts) > 1:
        registry.counter(
            "repro_fallback_escalations_total",
            "Solves that needed at least one fallback escalation",
        ).inc()
    result.warm_started = attempts[-1].warm_x0
    if solve_context is not None and result.converged:
        solve_context.record_solution(op, result.distribution)
    return ResilientSolveOutcome(
        result=result,
        attempts=attempts,
        checkpoint_saves=checkpoint_saves,
        resumed_from_iteration=resumed_iteration,
    )
