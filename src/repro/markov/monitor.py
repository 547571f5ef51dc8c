"""Solver telemetry: structured per-iteration events for stationary solvers.

Every stationary solver accepts an optional ``monitor=`` argument
implementing the :class:`SolverMonitor` protocol and emits one structured
event per iteration (sweep, V-cycle, Krylov step, or the single "iteration"
of a direct/eigen solve).  The multigrid solver additionally emits one
:class:`VCycleLevelEvent` per level visited in each V-cycle, carrying the
level's size, sparsity, aggregate count and its four stage times
(pre-/post-smoothing, coarse build, coarsest solve) -- the data needed to
see where a multi-level solve spends its time.

Every solver records its events in its own :class:`RecordingMonitor`
(see :func:`instrument`), the one record of the solve: the result carries
it as ``recording``, and the ``iterations``, ``residual`` and
``residual_history`` fields of
:class:`~repro.markov.solvers.result.StationaryResult` are derived from it,
which guarantees the invariants the conformance harness
(:mod:`repro.markov.conformance`) checks:

* ``result.iterations == len(events)``;
* ``result.residual == events[-1].residual`` (exact float equality).

Other timing views derive from the same record: the profile session's
``multigrid.L<k>`` stage cells (:func:`repro.obs.profile.record_vcycles`)
and the stage line of ``repro stats``.

Traces serialize to a stable JSON schema (``repro.solver-trace/1``) via
:meth:`RecordingMonitor.to_trace` / :meth:`RecordingMonitor.write_trace`,
which the CLI exposes as ``python -m repro analyze ... --trace out.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Any, Dict, List, Optional, Protocol, Union, runtime_checkable

__all__ = [
    "TRACE_SCHEMA",
    "IterationEvent",
    "VCycleLevelEvent",
    "SolverMonitor",
    "NullMonitor",
    "NULL_MONITOR",
    "RecordingMonitor",
    "TeeMonitor",
    "as_monitor",
    "instrument",
    "load_trace",
]

#: Identifier embedded in every exported trace so downstream consumers can
#: detect schema drift.
TRACE_SCHEMA = "repro.solver-trace/1"


@dataclass(frozen=True)
class IterationEvent:
    """One solver iteration (sweep / V-cycle / Krylov step).

    Attributes
    ----------
    iteration:
        1-based iteration index in the solver's natural unit.
    residual:
        ``||x P - x||_1`` of the iterate after this iteration.
    elapsed:
        Wall-clock seconds since the solve started.
    """

    iteration: int
    residual: float
    elapsed: float


@dataclass(frozen=True)
class VCycleLevelEvent:
    """Per-level telemetry for one multigrid V-cycle.

    Attributes
    ----------
    cycle:
        1-based V-cycle index this visit belongs to.
    level:
        Level in the hierarchy (0 is the fine level).
    n_states:
        Number of states of the level's chain.
    nnz:
        Non-zeros of the level's transition matrix.
    n_blocks:
        Aggregate (block) count produced by the coarsening strategy at this
        level; 0 when the level was not coarsened (the coarsest level, or
        a strategy that declined).
    pre_smooth_time, post_smooth_time:
        Wall-clock seconds spent in pre-/post-smoothing at this level
        during this cycle (summed over the W-cycle's repeats; the extra
        smoothing of a declined level too large to solve directly counts
        as post-smoothing).
    coarse_build_time:
        Seconds spent building this level's coarse operators, its Galerkin
        plan included.
    coarsest_solve_time:
        Seconds spent solving this level directly, its direct plan
        included (the coarsest level, or a declined level small enough).

    The four times are exclusive: a level's time excludes the visits to
    the levels below it, which have their own events.
    """

    cycle: int
    level: int
    n_states: int
    nnz: int
    n_blocks: int
    pre_smooth_time: float
    post_smooth_time: float
    coarse_build_time: float = 0.0
    coarsest_solve_time: float = 0.0


@runtime_checkable
class SolverMonitor(Protocol):
    """Observer protocol every stationary solver reports to.

    Implementations must tolerate any call order the solvers produce:
    ``solve_started`` once, then any number of ``iteration_finished`` /
    ``vcycle_level`` calls, then ``solve_finished`` once.
    """

    def solve_started(self, method: str, n_states: int, tol: float) -> None: ...

    def iteration_finished(
        self, iteration: int, residual: float, elapsed: float
    ) -> None: ...

    def vcycle_level(self, event: VCycleLevelEvent) -> None: ...

    def solve_finished(
        self, converged: bool, iterations: int, residual: float, elapsed: float
    ) -> None: ...


class NullMonitor:
    """Monitor that ignores every event (the default)."""

    def solve_started(self, method: str, n_states: int, tol: float) -> None:
        pass

    def iteration_finished(
        self, iteration: int, residual: float, elapsed: float
    ) -> None:
        pass

    def vcycle_level(self, event: VCycleLevelEvent) -> None:
        pass

    def solve_finished(
        self, converged: bool, iterations: int, residual: float, elapsed: float
    ) -> None:
        pass


#: Shared stateless instance; solvers fall back to it when ``monitor=None``.
NULL_MONITOR = NullMonitor()


class RecordingMonitor:
    """Monitor that records every event for later inspection/export.

    A recorder observes exactly one solve: reusing it for a second solve
    raises ``RuntimeError`` (create a fresh recorder per solve so traces
    stay unambiguous).
    """

    def __init__(self) -> None:
        self.method: Optional[str] = None
        self.n_states: Optional[int] = None
        self.tol: Optional[float] = None
        self.events: List[IterationEvent] = []
        self.vcycle_events: List[VCycleLevelEvent] = []
        self.converged: Optional[bool] = None
        self.iterations: Optional[int] = None
        self.residual: Optional[float] = None
        self.solve_time: Optional[float] = None

    # -- SolverMonitor protocol ---------------------------------------- #

    def solve_started(self, method: str, n_states: int, tol: float) -> None:
        if self.method is not None:
            raise RuntimeError(
                "RecordingMonitor already holds a solve; use a fresh recorder"
            )
        self.method = method
        self.n_states = n_states
        self.tol = tol

    def iteration_finished(
        self, iteration: int, residual: float, elapsed: float
    ) -> None:
        self.events.append(IterationEvent(iteration, float(residual), elapsed))

    def vcycle_level(self, event: VCycleLevelEvent) -> None:
        self.vcycle_events.append(event)

    def solve_finished(
        self, converged: bool, iterations: int, residual: float, elapsed: float
    ) -> None:
        self.converged = converged
        self.iterations = iterations
        self.residual = float(residual)
        self.solve_time = elapsed

    # -- Derived views -------------------------------------------------- #

    @property
    def n_iterations(self) -> int:
        return len(self.events)

    @property
    def residual_history(self) -> List[float]:
        """Residual after each recorded iteration (the legacy history list)."""
        return [e.residual for e in self.events]

    @property
    def finished(self) -> bool:
        return self.iterations is not None

    def last_residual(self) -> Optional[float]:
        return self.events[-1].residual if self.events else None

    # -- Export --------------------------------------------------------- #

    def to_trace(self) -> Dict[str, Any]:
        """JSON-serializable trace of the recorded solve."""
        return {
            "schema": TRACE_SCHEMA,
            "method": self.method,
            "n_states": self.n_states,
            "tol": self.tol,
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "solve_time": self.solve_time,
            "events": [asdict(e) for e in self.events],
            "vcycle_events": [asdict(e) for e in self.vcycle_events],
        }

    def write_trace(self, path_or_file: Union[str, IO[str]], indent: int = 2) -> None:
        """Write the trace as JSON to a path or open text file."""
        trace = self.to_trace()
        if hasattr(path_or_file, "write"):
            json.dump(trace, path_or_file, indent=indent)
            return
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=indent)
            fh.write("\n")


class TeeMonitor:
    """Fan one event stream out to several monitors (first wins on errors)."""

    def __init__(self, *monitors: SolverMonitor) -> None:
        self.monitors = tuple(m for m in monitors if m is not None)

    def solve_started(self, method: str, n_states: int, tol: float) -> None:
        for m in self.monitors:
            m.solve_started(method, n_states, tol)

    def iteration_finished(
        self, iteration: int, residual: float, elapsed: float
    ) -> None:
        for m in self.monitors:
            m.iteration_finished(iteration, residual, elapsed)

    def vcycle_level(self, event: VCycleLevelEvent) -> None:
        for m in self.monitors:
            m.vcycle_level(event)

    def solve_finished(
        self, converged: bool, iterations: int, residual: float, elapsed: float
    ) -> None:
        for m in self.monitors:
            m.solve_finished(converged, iterations, residual, elapsed)


def as_monitor(monitor: Optional[SolverMonitor]) -> SolverMonitor:
    """Normalize an optional user monitor to a concrete instance."""
    return NULL_MONITOR if monitor is None else monitor


def instrument(
    method: str,
    n_states: int,
    tol: float,
    monitor: Optional[SolverMonitor],
) -> "tuple[RecordingMonitor, SolverMonitor]":
    """Set up a solver's telemetry: ``(recorder, monitor_to_report_to)``.

    Every solver records its own events in a fresh :class:`RecordingMonitor`
    (the source of truth for its result's ``recording``, ``iterations``,
    ``residual`` and ``residual_history``) and tees them to the caller's
    monitor when one was passed.  ``solve_started`` has already been
    emitted on return.
    """
    recorder = RecordingMonitor()
    mon: SolverMonitor = (
        recorder if monitor is None else TeeMonitor(recorder, monitor)
    )
    mon.solve_started(method, n_states, tol)
    return recorder, mon


def load_trace(path: str) -> Dict[str, Any]:
    """Read a trace JSON file back, validating its schema tag."""
    with open(path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    if trace.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"unrecognized trace schema {trace.get('schema')!r}; "
            f"expected {TRACE_SCHEMA!r}"
        )
    return trace
