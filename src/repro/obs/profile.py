"""Operator-level profiling: where the matvec time actually goes.

ROADMAP item 1 blames the Python-level matvec for the matrix-free
performance gap, but until now nothing in the pipeline could *attribute*
wall-clock to operator x solver x stage.  This module adds two
instruments, both off by default and activated through one contextvar so
the uninstrumented cost of the hooks is a single ``ContextVar.get()``:

:class:`InstrumentedOperator`
    A transparent :class:`~repro.markov.linop.TransitionOperator` wrapper
    counting calls, per-call wall time and vector bytes moved for every
    protocol method (``matvec`` / ``rmatvec`` / ``diagonal`` /
    ``row_sums`` and the optional ``to_csr`` / ``triplets`` /
    ``matmat`` / ``rmatmat``).  Solvers,
    multigrid levels and the scenario measure kernels wrap the operators
    they consume via :func:`instrument_operator`, which collapses to the
    identity when no session is active.

:class:`ProfileSession`
    Collects the per-role operator statistics, optionally mirrors each
    call into Prometheus histograms (``repro_operator_call_seconds``,
    ``repro_operator_bytes_total``) and, with ``stacks=True``, runs a
    deterministic profiler (``sys.setprofile``, exact call stacks -- not
    sampling) whose aggregated self-time stacks export as collapsed-stack
    text (``flamegraph.pl`` / speedscope-ingestible) or as a speedscope
    JSON document.  Each stack is prefixed with the innermost open
    :mod:`repro.obs` span, so flamegraphs read per pipeline stage.

The multigrid stage cells (``multigrid.L<k>``: smoothing, coarse build,
coarsest solve) are not timed here: :func:`record_vcycles` sums them from
the solver's own V-cycle events when a solve ends.

Typical use::

    from repro.obs import profile

    with profile.profiled(stacks=True) as session:
        analyze_cdr(spec)
    print(session.snapshot()["hot_path"])        # ranked operator cost
    session.write_collapsed("analyze.collapsed") # flamegraph input
    session.write_speedscope("analyze.speedscope.json")

The session snapshot (schema ``repro.profile/1``) is embedded as the
``profile`` section of ``repro.run-trace/1`` manifests whenever a session
is active while the manifest is built.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "PROFILE_SCHEMA",
    "InstrumentedOperator",
    "ProfileSession",
    "get_profile_session",
    "instrument_operator",
    "profiled",
    "record_vcycles",
]

#: Schema tag of a session snapshot (the manifest ``profile`` section).
PROFILE_SCHEMA = "repro.profile/1"

#: Buckets for per-call operator timings (microseconds to seconds).
OPERATOR_CALL_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0
)


def _nbytes(value: Any) -> int:
    """Bytes moved by one argument/result (0 for non-array values)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):  # e.g. triplets() chunks
        return sum(_nbytes(v) for v in value)
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):  # scipy sparse matrices
        total = int(data.nbytes)
        for name in ("indices", "indptr", "row", "col"):
            arr = getattr(value, name, None)
            if isinstance(arr, np.ndarray):
                total += int(arr.nbytes)
        return total
    return 0


class InstrumentedOperator:
    """Counting wrapper around any transition operator.

    Satisfies the full :class:`~repro.markov.linop.TransitionOperator`
    protocol and forwards the *optional* capabilities (``to_csr``,
    ``triplets``, the blocked ``matmat`` / ``rmatmat``) only when the
    wrapped operator has them, so capability
    probes (``ensure_csr``, matrix-free multigrid) behave exactly as they
    would on the bare operator.  Every forwarded call is timed and its
    vector traffic (argument + result bytes) recorded on the session
    under this wrapper's ``role`` label.
    """

    __slots__ = ("inner", "role", "_session")

    def __init__(self, inner, role: str, session: "ProfileSession") -> None:
        self.inner = inner
        self.role = role
        self._session = session
        session.note_operator(role, type(inner).__name__, inner.shape[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return self.inner.shape

    def record(self, kind: str, seconds: float, nbytes: int, calls: int = 1) -> None:
        """Record ``calls`` applications made without this wrapper.

        A kernel that runs a whole loop of applies in one call (the
        survival kernel behind ``first_passage_survival``) reports them
        here, so the counts match those of the per-call loop it replaced.
        """
        self._session.record(self.role, kind, seconds, nbytes, calls=calls)

    def _timed(self, kind: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
        moved = _nbytes(out)
        for a in args:
            moved += _nbytes(a)
        self.record(kind, seconds, moved)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._timed("matvec", self.inner.matvec, v)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self._timed("rmatvec", self.inner.rmatvec, x)

    def diagonal(self) -> np.ndarray:
        return self._timed("diagonal", self.inner.diagonal)

    def row_sums(self) -> np.ndarray:
        return self._timed("row_sums", self.inner.row_sums)

    def __getattr__(self, name: str):
        # Optional capabilities stay optional: looked up on the wrapped
        # operator (AttributeError propagates for absent ones) and counted
        # when present.  Everything else forwards untouched.
        attr = getattr(self.inner, name)
        if name in ("to_csr", "triplets", "matmat", "rmatmat") and callable(attr):
            def counted(*args, _attr=attr, _name=name, **kwargs):
                t0 = time.perf_counter()
                out = _attr(*args, **kwargs)
                if _name == "triplets":
                    # A generator does its work when consumed: time that.
                    out = list(out)
                self._session.record(
                    self.role, _name, time.perf_counter() - t0, _nbytes(out)
                )
                return out
            return counted
        return attr

    def __repr__(self) -> str:
        return f"InstrumentedOperator({self.inner!r}, role={self.role!r})"


class _StackProfiler:
    """Deterministic (event-based, not sampling) stack profiler.

    A ``sys.setprofile`` hook attributes every slice of wall time to the
    full Python call stack active during it, aggregated into
    ``{stack tuple: self seconds}``.  Stacks are rooted at the innermost
    open :mod:`repro.obs` span (``span:<name>`` synthetic frame) so the
    export separates pipeline stages.  Being deterministic, two captures
    of the same run see the same call tree -- only the timings move.
    """

    def __init__(self) -> None:
        self.self_seconds: Dict[Tuple[str, ...], float] = {}
        self._stack: List[str] = []
        self._last: Optional[float] = None
        self._span_cache: Tuple[Optional[int], str] = (None, "span:-")
        self._previous = None

    # -- span prefix ----------------------------------------------------- #

    def _span_frame(self) -> str:
        from repro.obs.tracing import get_tracer

        tracer = get_tracer()
        current = tracer.current if tracer is not None else None
        key = id(current) if current is not None else None
        cached_key, cached = self._span_cache
        if key == cached_key:
            return cached
        name = f"span:{current.name}" if current is not None else "span:-"
        self._span_cache = (key, name)
        return name

    # -- the profile hook ------------------------------------------------ #

    def _attribute(self, now: float) -> None:
        if self._last is not None and self._stack:
            key = (self._span_frame(),) + tuple(self._stack)
            dt = now - self._last
            self.self_seconds[key] = self.self_seconds.get(key, 0.0) + dt
        self._last = now

    def _hook(self, frame, event: str, arg) -> None:
        now = time.perf_counter()
        self._attribute(now)
        if event == "call":
            code = frame.f_code
            self._stack.append(f"{code.co_filename.rpartition('/')[2]}:{code.co_name}")
        elif event == "return":
            if self._stack:
                self._stack.pop()
        elif event == "c_call":
            name = getattr(arg, "__qualname__", None) or getattr(
                arg, "__name__", "<builtin>"
            )
            self._stack.append(f"<c>:{name}")
        elif event == "c_return" or event == "c_exception":
            if self._stack:
                self._stack.pop()
        self._last = time.perf_counter()

    def start(self) -> None:
        self._previous = sys.getprofile()
        self._last = time.perf_counter()
        sys.setprofile(self._hook)

    def stop(self) -> None:
        self._attribute(time.perf_counter())
        sys.setprofile(self._previous)
        self._previous = None


class ProfileSession:
    """One profiling capture: operator statistics plus optional stacks.

    Parameters
    ----------
    metrics:
        Mirror every instrumented operator call into the Prometheus
        registry (histogram ``repro_operator_call_seconds`` and counter
        ``repro_operator_bytes_total``, labelled ``role`` / ``op``).
    stacks:
        Also run the deterministic stack profiler for the lifetime of the
        session (expensive -- every Python call is intercepted; reserve it
        for dedicated profiling runs).
    registry:
        Metrics registry to report into (the process default when None).
    """

    def __init__(
        self,
        metrics: bool = True,
        stacks: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        # role -> op kind -> [calls, seconds, bytes]
        self.operators: Dict[str, Dict[str, List[float]]] = {}
        self.operator_info: Dict[str, Dict[str, Any]] = {}
        self.stack_profiler = _StackProfiler() if stacks else None
        self._hist = None
        self._bytes_counter = None
        if metrics:
            registry = get_registry() if registry is None else registry
            self._hist = registry.histogram(
                "repro_operator_call_seconds",
                "Per-call wall time of instrumented transition-operator "
                "applications",
                buckets=OPERATOR_CALL_BUCKETS,
            )
            self._bytes_counter = registry.counter(
                "repro_operator_bytes_total",
                "Vector bytes moved through instrumented transition "
                "operators",
            )

    # -- collection ------------------------------------------------------ #

    def note_operator(self, role: str, type_name: str, n_states: int) -> None:
        info = self.operator_info.setdefault(
            role, {"operator": type_name, "n_states": n_states, "instances": 0}
        )
        info["instances"] += 1

    def record(
        self, role: str, kind: str, seconds: float, nbytes: int, calls: int = 1
    ) -> None:
        """Add ``calls`` calls taking ``seconds`` and moving ``nbytes`` in all.

        The Prometheus histogram observes one entry per record, whatever
        ``calls`` is: a bulk record is one timed kernel call.
        """
        per_role = self.operators.setdefault(role, {})
        cell = per_role.get(kind)
        if cell is None:
            cell = per_role[kind] = [0, 0.0, 0]
        cell[0] += calls
        cell[1] += seconds
        cell[2] += nbytes
        if self._hist is not None:
            self._hist.observe(seconds, role=role, op=kind)
            self._bytes_counter.inc(nbytes, role=role, op=kind)

    # -- snapshot -------------------------------------------------------- #

    def hot_path(self, limit: int = 10) -> List[Dict[str, Any]]:
        """The costliest (role, op) cells, most seconds first."""
        rows = [
            {
                "role": role,
                "op": kind,
                "calls": int(calls),
                "seconds": seconds,
                "bytes": int(nbytes),
            }
            for role, per_role in self.operators.items()
            for kind, (calls, seconds, nbytes) in per_role.items()
        ]
        rows.sort(key=lambda r: r["seconds"], reverse=True)
        return rows[:limit]

    def snapshot(self) -> Dict[str, Any]:
        """JSON form of the session (the manifest ``profile`` section)."""
        operators = {}
        for role, per_role in sorted(self.operators.items()):
            ops = {
                kind: {
                    "calls": int(calls),
                    "seconds": seconds,
                    "bytes": int(nbytes),
                }
                for kind, (calls, seconds, nbytes) in sorted(per_role.items())
            }
            entry: Dict[str, Any] = {
                "ops": ops,
                "total_seconds": sum(o["seconds"] for o in ops.values()),
                "total_calls": sum(o["calls"] for o in ops.values()),
                "total_bytes": sum(o["bytes"] for o in ops.values()),
            }
            entry.update(self.operator_info.get(role, {}))
            operators[role] = entry
        from repro.kernels import active_tier

        return {
            "schema": PROFILE_SCHEMA,
            "operators": operators,
            "hot_path": self.hot_path(),
            "stacks_captured": self.stack_profiler is not None,
            "kernel_tier": active_tier(),
        }

    # -- stack export ---------------------------------------------------- #

    def collapsed_stacks(self) -> Dict[Tuple[str, ...], float]:
        """Aggregated ``{stack tuple: self seconds}`` of the capture."""
        if self.stack_profiler is None:
            raise ValueError(
                "no stacks captured; open the session with stacks=True"
            )
        return dict(self.stack_profiler.self_seconds)

    def write_collapsed(self, path: str) -> None:
        """Write collapsed-stack text (``frame;frame;... microseconds``).

        The classic Brendan Gregg format: one line per unique stack, value
        in integer microseconds -- feed it to ``flamegraph.pl`` or drop it
        into https://www.speedscope.app directly.
        """
        lines = []
        for stack, seconds in sorted(self.collapsed_stacks().items()):
            micros = int(round(seconds * 1e6))
            if micros > 0:
                lines.append(";".join(stack) + f" {micros}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    def write_speedscope(self, path: str, name: str = "repro profile") -> None:
        """Write the capture as a speedscope JSON document."""
        stacks = self.collapsed_stacks()
        frame_index: Dict[str, int] = {}
        samples: List[List[int]] = []
        weights: List[float] = []
        for stack, seconds in sorted(stacks.items()):
            if seconds <= 0.0:
                continue
            sample = []
            for frame in stack:
                if frame not in frame_index:
                    frame_index[frame] = len(frame_index)
                sample.append(frame_index[frame])
            samples.append(sample)
            weights.append(seconds)
        total = sum(weights)
        document = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.obs.profile",
            "activeProfileIndex": 0,
            "shared": {
                "frames": [{"name": f} for f in frame_index],
            },
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
            fh.write("\n")


_ACTIVE_SESSION: ContextVar[Optional[ProfileSession]] = ContextVar(
    "repro_obs_profile_session", default=None
)


def get_profile_session() -> Optional[ProfileSession]:
    """The active :class:`ProfileSession`, or None when profiling is off."""
    return _ACTIVE_SESSION.get()


@contextmanager
def profiled(
    metrics: bool = True,
    stacks: bool = False,
    registry: Optional[MetricsRegistry] = None,
):
    """Activate a :class:`ProfileSession` for the enclosed block.

    While active, :func:`instrument_operator` wraps operators (so solver,
    multigrid and scenario-kernel traffic is counted) and run manifests
    built inside the block embed the session snapshot.
    """
    session = ProfileSession(metrics=metrics, stacks=stacks, registry=registry)
    token = _ACTIVE_SESSION.set(session)
    if session.stack_profiler is not None:
        session.stack_profiler.start()
    try:
        yield session
    finally:
        if session.stack_profiler is not None:
            session.stack_profiler.stop()
        _ACTIVE_SESSION.reset(token)


#: ``VCycleLevelEvent`` field -> the stage cell of its level it feeds.
_VCYCLE_STAGES = (
    ("pre_smooth_time", "smooth.pre"),
    ("post_smooth_time", "smooth.post"),
    ("coarse_build_time", "coarse_build"),
    ("coarsest_solve_time", "coarsest_solve"),
)


def record_vcycles(events) -> None:
    """Fold a multigrid solve's V-cycle level events into the active session.

    Each event adds its stage times to the ``smooth.pre`` /
    ``smooth.post`` / ``coarse_build`` / ``coarsest_solve`` cells of the
    ``multigrid.L<level>`` role (one call per stage that ran, no bytes),
    so a cell's seconds are exactly the sum of its level's event times.
    The multigrid solver calls this once, when its solve ends; without a
    session it does nothing.
    """
    session = _ACTIVE_SESSION.get()
    if session is None:
        return
    for event in events:
        role = f"multigrid.L{event.level}"
        for field, kind in _VCYCLE_STAGES:
            seconds = getattr(event, field)
            if seconds:
                session.record(role, kind, seconds, 0)


def instrument_operator(op, role: str):
    """Wrap ``op`` for counting when a profile session is active.

    The disabled path is one ``ContextVar.get()`` and a ``None`` check --
    the instrumentation hooks in the solvers and measure kernels cost
    nothing measurable when nobody is profiling.  Already-instrumented
    operators pass through untouched, so layered call sites (scenario
    kernel over solver over backend) count each application exactly once,
    under the innermost role that wrapped it.
    """
    session = _ACTIVE_SESSION.get()
    if session is None or isinstance(op, InstrumentedOperator):
        return op
    return InstrumentedOperator(op, role, session)
