"""Deterministic fault injection: exercise every guard instead of trusting it.

Each injector here reproduces one production failure mode on demand:

* :class:`NaNMatvecOperator` -- a transition operator whose ``rmatvec``
  starts returning NaN after a fixed number of calls (overflow / bad
  assembly mid-solve);
* :class:`StallingOperator` -- an operator that silently switches to
  ``rmatvec(x) = x + eps*u`` with mass-neutral ``u``, freezing the
  residual at a nonzero constant (the mixing-gap ~ 0 stagnation mode);
* :func:`killing_analyze_fn` -- a sweep worker that dies
  (:class:`SimulatedWorkerKill`) at chosen point indices;
* :func:`corrupt_checkpoint` -- flips checkpoint payload bytes without
  updating the integrity digest (truncated write / bit rot);
* an unreachable memory budget -- trips the peak-RSS gate of
  :func:`~repro.resilience.fallback.resilient_stationary`.

:func:`run_fault_suite` runs the whole battery on small chains and reports
one :class:`FaultOutcome` per scenario -- ``caught`` is True only when the
injected fault produced exactly the expected typed diagnosis.  CI runs the
``quick`` profile and asserts every outcome is caught
(``repro faults`` exposes the same battery from the CLI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.markov.linop import TransitionOperator, as_operator
from repro.resilience.checkpoint import (
    SolverCheckpoint,
    load_solver_checkpoint,
    save_solver_checkpoint,
)
from repro.resilience.errors import (
    BudgetExceeded,
    CheckpointCorrupted,
    FallbackExhausted,
    NumericalContamination,
    SolverStagnated,
)
from repro.resilience.fallback import (
    FallbackPolicy,
    FallbackStep,
    resilient_stationary,
)
from repro.resilience.guards import GuardPolicy, guarded_solve

__all__ = [
    "SimulatedWorkerKill",
    "NaNMatvecOperator",
    "StallingOperator",
    "killing_analyze_fn",
    "corrupt_checkpoint",
    "FaultOutcome",
    "run_fault_suite",
    "format_fault_report",
    "FAULT_SCENARIOS",
]


class SimulatedWorkerKill(RuntimeError):
    """Injected stand-in for a sweep worker dying mid-point (OOM kill, segfault)."""


# ---------------------------------------------------------------------- #
# operator-level injectors
# ---------------------------------------------------------------------- #

class _DelegatingOperator:
    """Forward the :class:`TransitionOperator` protocol to a wrapped operator.

    Deliberately does *not* forward ``to_csr``/``triplets``: an injected
    fault must survive in the matrix-free path, not be assembled away.
    """

    def __init__(self, inner) -> None:
        self._inner: TransitionOperator = as_operator(inner)

    @property
    def shape(self):
        return self._inner.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._inner.matvec(v)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self._inner.rmatvec(x)

    def diagonal(self) -> np.ndarray:
        return self._inner.diagonal()

    def row_sums(self) -> np.ndarray:
        return self._inner.row_sums()


class NaNMatvecOperator(_DelegatingOperator):
    """Return NaN from ``rmatvec`` starting at the ``after``-th call."""

    def __init__(self, inner, after: int = 5) -> None:
        super().__init__(inner)
        if after < 1:
            raise ValueError("'after' must be at least 1")
        self.after = after
        self.calls = 0

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        out = self._inner.rmatvec(x)
        if self.calls >= self.after:
            out = out.copy()
            out[0] = np.nan
        return out


class StallingOperator(_DelegatingOperator):
    """Freeze the residual: after ``after`` calls, ``rmatvec(x) = x + eps*u``.

    ``u`` is a fixed mass-neutral perturbation (entries sum to zero), so the
    returned vector still carries total mass 1 but the residual
    ``|rmatvec(x) - x|_1 = eps * |u|_1`` never shrinks -- the exact
    signature of a solver stagnating below tolerance.  (Returning ``x``
    unchanged would instead look like perfect convergence.)
    """

    def __init__(self, inner, after: int = 3, epsilon: float = 1e-4) -> None:
        super().__init__(inner)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.after = after
        self.epsilon = epsilon
        self.calls = 0
        n = self.shape[0]
        u = np.ones(n)
        u[: n // 2] = -1.0
        if n % 2:
            u[-1] = 0.0
        self._u = u

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls <= self.after:
            return self._inner.rmatvec(x)
        return np.asarray(x, dtype=float) + self.epsilon * self._u


def killing_analyze_fn(
    analyze_fn: Callable[..., Any], kill_indices: Iterable[int]
) -> Callable[..., Any]:
    """Wrap a sweep's analyze function to die at chosen point indices.

    The wrapper counts calls; calls whose 0-based index is in
    ``kill_indices`` raise :class:`SimulatedWorkerKill` instead of
    analyzing -- the in-process equivalent of a worker being OOM-killed at
    that sweep point.
    """
    kills = frozenset(int(i) for i in kill_indices)
    counter = {"n": -1}

    def wrapped(*args, **kwargs):
        counter["n"] += 1
        if counter["n"] in kills:
            raise SimulatedWorkerKill(
                f"injected worker kill at sweep point {counter['n']}"
            )
        return analyze_fn(*args, **kwargs)

    return wrapped


def corrupt_checkpoint(path: str, mode: str = "payload") -> None:
    """Deterministically corrupt a checkpoint file in place.

    ``mode="payload"`` perturbs a payload field without refreshing the
    digest (bit rot); ``mode="truncate"`` chops the file mid-JSON
    (interrupted write on a filesystem without atomic rename).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if mode == "truncate":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[: max(1, len(text) // 2)])
        return
    if mode == "payload":
        document = json.loads(text)
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: no payload object to corrupt")
        payload["iteration"] = int(payload.get("iteration", 0) or 0) + 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
        return
    raise ValueError(f"unknown corruption mode {mode!r}")


# ---------------------------------------------------------------------- #
# the scenario battery
# ---------------------------------------------------------------------- #

@dataclass
class FaultOutcome:
    """Result of one injected-fault scenario."""

    name: str
    description: str
    expected: str
    caught: bool
    diagnosis: Optional[str] = None
    message: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_event(self) -> Dict[str, Any]:
        return {
            "event": "fault_injection",
            "name": self.name,
            "expected": self.expected,
            "caught": self.caught,
            "diagnosis": self.diagnosis,
            "message": self.message,
            **({"detail": self.detail} if self.detail else {}),
        }


def _battery_chain(n: int = 64):
    """A small well-behaved birth-death chain for the fault battery."""
    from repro.markov.conformance import birth_death_fixture

    return birth_death_fixture(n=n)


def _expect(
    name: str,
    description: str,
    expected_type: type,
    run: Callable[[], Any],
    detail_fn: Optional[Callable[[BaseException], Dict[str, Any]]] = None,
) -> FaultOutcome:
    """Run a scenario and grade the raised diagnosis against expectations."""
    expected = expected_type.__name__
    try:
        run()
    except expected_type as exc:
        return FaultOutcome(
            name=name, description=description, expected=expected,
            caught=True, diagnosis=type(exc).__name__, message=str(exc),
            detail=detail_fn(exc) if detail_fn else {},
        )
    except BaseException as exc:  # noqa: BLE001 - grading, not handling
        return FaultOutcome(
            name=name, description=description, expected=expected,
            caught=False, diagnosis=type(exc).__name__, message=str(exc),
        )
    return FaultOutcome(
        name=name, description=description, expected=expected,
        caught=False, diagnosis=None,
        message="fault was injected but no diagnosis was raised",
    )


def _scenario_nan_matvec(profile: str) -> FaultOutcome:
    chain = _battery_chain(64 if profile == "quick" else 256)
    op = NaNMatvecOperator(chain.P, after=4)
    return _expect(
        "nan_matvec",
        "rmatvec returns NaN mid-solve; guard must abort the iteration",
        NumericalContamination,
        lambda: guarded_solve(op, method="power", tol=1e-10, precheck=False),
        lambda exc: {"iteration": exc.iteration},
    )


def _scenario_stalled_residual(profile: str) -> FaultOutcome:
    chain = _battery_chain(64 if profile == "quick" else 256)
    op = StallingOperator(chain.P, after=3, epsilon=1e-4)
    guard = GuardPolicy(stagnation_window=10)
    return _expect(
        "stalled_residual",
        "residual freezes above tolerance; guard must call stagnation",
        SolverStagnated,
        lambda: guarded_solve(
            op, method="power", tol=1e-10, guard=guard, precheck=False
        ),
        lambda exc: {"iteration": exc.iteration, "residual": exc.residual},
    )


def _scenario_killed_sweep_point(profile: str) -> FaultOutcome:
    from repro.cdr.sweep import sweep_parameter
    from repro.core.analyzer import analyze_cdr
    from repro.core.spec import CDRSpec

    spec = CDRSpec(
        n_phase_points=32, n_clock_phases=16, counter_length=2,
        max_run_length=2, nw_atoms=5,
    )
    analyze = killing_analyze_fn(analyze_cdr, kill_indices=[1])

    def run():
        result = sweep_parameter(
            spec, "transition_density", [0.4, 0.5, 0.6],
            solver="power", analyze_fn=analyze,
        )
        if len(result) != 2 or len(result.failed_points) != 1:
            raise AssertionError(
                f"expected 2 surviving points and 1 failure, got "
                f"{len(result)} and {len(result.failed_points)}"
            )
        entry = result.failed_points[0]
        raise SimulatedWorkerKill(
            f"point {entry['index']} recorded: {entry['error_type']}"
        )

    return _expect(
        "killed_sweep_point",
        "a sweep worker dies at point 1; sweep must record it and continue",
        SimulatedWorkerKill,
        run,
    )


def _scenario_corrupted_checkpoint(profile: str) -> FaultOutcome:
    import os
    import tempfile

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "solve.ckpt.json")
            save_solver_checkpoint(path, SolverCheckpoint(
                method="power", iteration=50,
                vector=np.full(8, 1.0 / 8), job={"n_states": 8},
            ))
            corrupt_checkpoint(path, mode="payload")
            load_solver_checkpoint(path)

    return _expect(
        "corrupted_checkpoint",
        "checkpoint payload mutated after write; digest check must refuse it",
        CheckpointCorrupted,
        run,
    )


def _scenario_memory_budget(profile: str) -> FaultOutcome:
    chain = _battery_chain(32)
    policy = FallbackPolicy(
        steps=(FallbackStep("power"),),
        memory_budget_bytes=1,  # any real process exceeds 1 byte of RSS
    )
    return _expect(
        "memory_budget",
        "peak RSS over budget before the attempt; solve must refuse to start",
        BudgetExceeded,
        lambda: resilient_stationary(chain, policy, tol=1e-10),
        lambda exc: {"budget": exc.budget, "observed": exc.observed},
    )


def _scenario_fallback_exhausted(profile: str) -> FaultOutcome:
    chain = _battery_chain(32)
    op = StallingOperator(chain.P, after=0, epsilon=1e-4)
    policy = FallbackPolicy(
        steps=(FallbackStep("power", max_iter=200),
               FallbackStep("krylov", max_iter=100)),
        guard=GuardPolicy(stagnation_window=10),
        retry_perturbed=True,
    )

    def detail(exc: BaseException) -> Dict[str, Any]:
        attempts = getattr(exc, "attempts", [])
        if len(attempts) < 2:
            raise AssertionError(
                f"expected a multi-attempt trail, got {len(attempts)}"
            )
        return {"attempts": [a["method"] for a in attempts]}

    return _expect(
        "fallback_exhausted",
        "every chain method stalls; driver must return the full attempt trail",
        FallbackExhausted,
        lambda: resilient_stationary(op, policy, tol=1e-10),
        detail,
    )


#: Scenario name -> callable(profile) -> FaultOutcome.
FAULT_SCENARIOS: Dict[str, Callable[[str], FaultOutcome]] = {
    "nan_matvec": _scenario_nan_matvec,
    "stalled_residual": _scenario_stalled_residual,
    "killed_sweep_point": _scenario_killed_sweep_point,
    "corrupted_checkpoint": _scenario_corrupted_checkpoint,
    "memory_budget": _scenario_memory_budget,
    "fallback_exhausted": _scenario_fallback_exhausted,
}


def run_fault_suite(
    profile: str = "quick",
    names: Optional[Sequence[str]] = None,
    suite: str = "core",
) -> List[FaultOutcome]:
    """Run a fault battery; one :class:`FaultOutcome` per scenario.

    ``profile`` is ``"quick"`` (CI smoke: tiny chains) or ``"full"``
    (larger chains, same scenarios).  ``suite`` picks the battery:
    ``"core"`` (this module's solver/checkpoint faults), ``"workers"``
    (the :mod:`repro.resilience.worker_faults` chaos battery against the
    elastic executor) or ``"all"``.  ``names`` restricts the run to a
    subset of the selected suite's scenarios.
    """
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown fault profile {profile!r}; use 'quick' or 'full'")
    scenarios: Dict[str, Callable[[str], FaultOutcome]] = {}
    if suite in ("core", "all"):
        scenarios.update(FAULT_SCENARIOS)
    if suite in ("workers", "all"):
        from repro.resilience.worker_faults import WORKER_FAULT_SCENARIOS

        scenarios.update(WORKER_FAULT_SCENARIOS)
    if not scenarios:
        raise ValueError(
            f"unknown fault suite {suite!r}; use 'core', 'workers' or 'all'"
        )
    selected = list(scenarios) if names is None else list(names)
    unknown = [n for n in selected if n not in scenarios]
    if unknown:
        raise ValueError(
            f"unknown fault scenario(s) {unknown}; choose from "
            f"{sorted(scenarios)}"
        )
    return [scenarios[name](profile) for name in selected]


def format_fault_report(outcomes: Sequence[FaultOutcome]) -> str:
    """Human-readable battery report (what ``repro faults`` prints)."""
    lines = ["fault-injection battery", "======================="]
    for o in outcomes:
        status = "caught" if o.caught else "MISSED"
        lines.append(f"[{status}] {o.name}: expected {o.expected}, got {o.diagnosis}")
        lines.append(f"    {o.description}")
        if o.message:
            lines.append(f"    -> {o.message}")
    caught = sum(1 for o in outcomes if o.caught)
    lines.append(f"{caught}/{len(outcomes)} faults caught and classified")
    return "\n".join(lines)
