"""The end-to-end CDR performance analyzer -- the paper's contribution.

``analyze_cdr(spec)`` performs the whole published flow:

1. compile the spec's FSM/noise description into the product Markov chain
   (vectorized assembly; the paper's "Matrixformtime");
2. compute the stationary distribution, by default with the multi-level
   aggregation multigrid, coarsened by grid pairing (the paper's lumping
   of consecutive phase points, extended to the data and counter
   coordinates; the "Iter" and "Solvetime" numbers);
3. derive the performance measures: BER from the tails of the stationary
   noisy-phase distribution, cycle-slip rate / mean time between slips
   from the wrap flux, and phase-error statistics.

Every run is traced with :mod:`repro.obs` spans: the root ``cdr.analyze``
span (stored on the result as :attr:`CDRAnalysis.trace`) nests
``cdr.build_tpm``, ``markov.solve`` and ``cdr.measures`` children.  The
solver's own recording of the solve (every solver keeps one) is
:attr:`CDRAnalysis.solver_recording`, which run manifests embed as their
solver trace; the analyzer records nothing of its own.  Stage wall times
are exposed as :attr:`CDRAnalysis.build_seconds` /
:attr:`CDRAnalysis.solve_seconds` (the legacy ``form_time`` /
``solve_time`` aliases have been removed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

import repro.cdr.backends  # noqa: F401  (registers the built-in backends)
from repro.cdr.model import CDRChainModel
from repro.core import measures as _measures
from repro.core.spec import CDRSpec
from repro.markov.monitor import RecordingMonitor
from repro.markov.registry import get_backend
from repro.markov.solvers.result import StationaryResult
from repro.markov.stationary import stationary_distribution
from repro.obs import Tracer, get_registry, get_tracer, span, use_tracer

__all__ = ["CDRAnalysis", "analyze_cdr", "analyze_model"]

_MULTIGRID_MIN_STATES = 8_192


@dataclass
class CDRAnalysis:
    """Everything the analysis produces for one design point."""

    spec: Optional[CDRSpec]
    model: CDRChainModel
    solver_result: StationaryResult
    ber: float
    ber_discrete: float
    slip_rate: float
    mean_symbols_between_slips: float
    phase_stats: Dict[str, float] = field(default_factory=dict)
    #: Registered backend that realized the transition matrix.
    backend: str = "assembled"
    #: Registry key of the solver that actually ran (``auto`` resolved).
    solver_entry: Optional[str] = None
    #: Root span of this run (``cdr.analyze``) with nested stage spans.
    trace: Optional[object] = field(default=None, repr=False)
    #: Structured resilience events (solver attempts, escalations, backend
    #: degradations, checkpoint resumes) when the run used the resilient
    #: solve path; empty for plain solves.  Embedded in run manifests.
    resilience_events: List[Dict[str, Any]] = field(default_factory=list, repr=False)

    @property
    def stationary(self) -> np.ndarray:
        return self.solver_result.distribution

    @property
    def solver_recording(self) -> Optional[RecordingMonitor]:
        """The solver's own per-iteration recording of the solve.

        On a resilient run this is the winning attempt's recording.
        """
        return self.solver_result.recording

    @property
    def n_states(self) -> int:
        return self.model.n_states

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Wall seconds per pipeline stage, from the run's spans.

        Keys are span names (``cdr.build_tpm``, ``markov.solve``,
        ``cdr.measures``); the build entry falls back to the model's
        recorded assembly time when the model was built outside this
        analysis (``analyze_model`` on a pre-built model).
        """
        stages: Dict[str, float] = {}
        if self.trace is not None:
            stages.update(self.trace.stage_seconds())
        stages.setdefault("cdr.build_tpm", self.model.form_time)
        stages.setdefault("markov.solve", self.solver_result.solve_time)
        return stages

    @property
    def build_seconds(self) -> float:
        """Wall seconds spent assembling the TPM (paper "Matrixformtime")."""
        return self.stage_seconds["cdr.build_tpm"]

    @property
    def solve_seconds(self) -> float:
        """Wall seconds spent in the stationary solver (paper "Solvetime")."""
        return self.stage_seconds["markov.solve"]

    @property
    def phase_rms(self) -> float:
        return self.phase_stats.get("rms_ui", float("nan"))

    def phase_error_pdf(self):
        """``(values, probs)`` of the stationary phase error (paper plots)."""
        return _measures.phase_error_pdf(self.model, self.stationary)

    def sampled_phase_pdf(self):
        """``(values, probs)`` of the stationary ``Phi + n_w``."""
        return _measures.sampled_phase_pdf(self.model, self.stationary)

    def report(self) -> str:
        """The paper's two annotation lines for a Figure-4/5 style plot."""
        spec = self.spec
        counter = spec.counter_length if spec else self.model.counter_length
        std_nw = spec.nw_std if spec else self.model.nw.std()
        max_nr = spec.nr_max if spec else float(
            np.max(np.abs(self.model.nr_steps.values)) * self.model.grid.step
        )
        line1 = (
            f"COUNTER: {counter}  STDnw: {std_nw:.1e}  "
            f"MAXnr: {max_nr:.1e}  BER: {self.ber:.1e}"
        )
        line2 = (
            f"Size: {self.n_states}  Iter: {self.solver_result.iterations}  "
            f"Matrixformtime: {self.build_seconds / 60.0:.2f} mins  "
            f"Solvetime: {self.solve_seconds / 60.0:.2f} mins"
        )
        return line1 + "\n" + line2


class _ensure_tracer:
    """Activate a private tracer when none is active (so spans always
    record), leaving an externally-installed tracer untouched."""

    def __init__(self) -> None:
        self._cm = None

    def __enter__(self):
        tracer = get_tracer()
        if tracer is None:
            self._cm = use_tracer(Tracer())
            tracer = self._cm.__enter__()
        return tracer

    def __exit__(self, *exc) -> bool:
        if self._cm is not None:
            return bool(self._cm.__exit__(*exc))
        return False


def _resolve_resilience_policy(model, solver, max_iter, solver_kwargs, resilience):
    """Turn the ``resilience`` argument into a concrete FallbackPolicy.

    ``True`` builds the registry default chain headed by the requested
    solver (with the caller's solver kwargs and ``max_iter`` applied to
    that first attempt only); a :class:`~repro.resilience.FallbackPolicy`
    is used as-is.
    """
    from repro.resilience import FallbackPolicy

    if isinstance(resilience, FallbackPolicy):
        return resilience
    policy = FallbackPolicy.from_registry(
        model.chain,
        first_method=solver,
        first_kwargs=dict(solver_kwargs),
    )
    if max_iter is not None:
        steps = (dataclasses.replace(policy.steps[0], max_iter=max_iter),)
        policy = dataclasses.replace(policy, steps=steps + policy.steps[1:])
    return policy


def _solve_and_measure(
    model: CDRChainModel,
    spec: Optional[CDRSpec],
    root,
    solver: str,
    tol: float,
    max_iter: Optional[int],
    solver_kwargs,
    backend: str = "assembled",
    resilience=None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: int = 25,
    resume: bool = False,
    solve_context=None,
) -> CDRAnalysis:
    """The solve + measures stages, recorded under the open ``root`` span."""
    if solver == "auto":
        if isinstance(model, CDRChainModel):
            solver = (
                "multigrid" if model.n_states >= _MULTIGRID_MIN_STATES else "direct"
            )
        else:
            # Matrix-free backends never assemble: direct LU is off the
            # table, so small models fall back to power iteration.
            solver = (
                "multigrid" if model.n_states >= _MULTIGRID_MIN_STATES else "power"
            )
    if solver == "multigrid":
        # The paper's structured coarsening plus heavy Gauss-Jacobi
        # smoothing: CDR chains are drift-dominated, where extra cheap
        # sweeps per V-cycle pay for themselves several times over.  With
        # a solve context the coarsening partitions come from its cache
        # (built once per chain structure, with the model's grid pairing
        # -- a bare assembled CSR carries no grid structure to discover).
        if solve_context is not None and "strategy" not in solver_kwargs:
            solver_kwargs.setdefault(
                "hierarchy",
                solve_context.hierarchy_for(
                    model.chain, strategy=model.multigrid_strategy()
                ),
            )
        else:
            solver_kwargs.setdefault("strategy", model.multigrid_strategy())
        solver_kwargs.setdefault("nu_pre", 8)
        solver_kwargs.setdefault("nu_post", 8)
    elif solver == "krylov" and solve_context is not None:
        # The cached hierarchy doubles as the AMG preconditioner.
        solver_kwargs.setdefault("preconditioner", "amg")
        solver_kwargs.setdefault(
            "hierarchy",
            solve_context.hierarchy_for(
                model.chain, strategy=model.multigrid_strategy()
            ),
        )
    x0 = solver_kwargs.pop("x0", None)

    monitor = solver_kwargs.pop("monitor", None)

    resilience_events: List[Dict[str, Any]] = []
    with span(
        "markov.solve", n_states=model.n_states, backend=backend
    ) as solve_span:
        if resilience is not None:
            from repro.resilience import resilient_stationary

            policy = _resolve_resilience_policy(
                model, solver, max_iter, solver_kwargs, resilience
            )
            outcome = resilient_stationary(
                model.chain, policy, tol=tol, x0=x0, monitor=monitor,
                checkpoint_path=checkpoint_path,
                checkpoint_interval=checkpoint_interval, resume=resume,
                solve_context=solve_context,
            )
            result = outcome.result
            resilience_events = outcome.events()
            solve_span.set_attributes(
                attempts=len(outcome.attempts), escalations=outcome.escalations
            )
        else:
            warmed = False
            if x0 is None and solve_context is not None:
                x0 = solve_context.warm_start_for(model.chain)
                warmed = x0 is not None
            result = stationary_distribution(
                model.chain, method=solver, tol=tol, max_iter=max_iter,
                monitor=monitor, x0=x0, **solver_kwargs,
            ).require_converged()
            result.warm_started = warmed
            if solve_context is not None:
                solve_context.record_solution(model.chain, result.distribution)
        solve_span.set_attributes(
            method=result.method,
            iterations=result.iterations,
            residual=result.residual,
            converged=result.converged,
        )
    registry = get_registry()
    registry.counter(
        "repro_solver_iterations_total",
        "Stationary-solver iterations across all solves",
    ).inc(result.iterations, method=result.method)
    registry.histogram(
        "repro_solve_seconds", "Wall time of stationary solves"
    ).observe(result.solve_time, method=result.method)

    eta = result.distribution
    with span("cdr.measures"):
        analysis = CDRAnalysis(
            spec=spec,
            model=model,
            solver_result=result,
            ber=_measures.bit_error_rate(model, eta),
            ber_discrete=_measures.bit_error_rate_discrete(model, eta),
            slip_rate=_measures.cycle_slip_rate(model, eta),
            mean_symbols_between_slips=_measures.mean_symbols_between_slips(model, eta),
            phase_stats=_measures.phase_statistics(model, eta),
            backend=backend,
            solver_entry=solver,
            trace=root,
            resilience_events=resilience_events,
        )
    root.set_attributes(n_states=model.n_states, ber=analysis.ber)
    registry.counter(
        "repro_analyses_total", "Completed end-to-end CDR analyses"
    ).inc()
    return analysis


def analyze_model(
    model: CDRChainModel,
    spec: Optional[CDRSpec] = None,
    solver: str = "auto",
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    resilience=None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: int = 25,
    resume: bool = False,
    solve_context=None,
    **solver_kwargs,
) -> CDRAnalysis:
    """Analyze an already-built model (see :func:`analyze_cdr`).

    ``model`` may be the classic assembled
    :class:`~repro.cdr.model.CDRChainModel` or a matrix-free
    :class:`~repro.cdr.backends.OperatorCDRModel` facade; the analysis
    records which backend produced it.
    """
    backend = getattr(model, "backend", "assembled")
    with _ensure_tracer(), span("cdr.analyze") as root:
        return _solve_and_measure(
            model, spec, root, solver, tol, max_iter, solver_kwargs,
            backend=backend, resilience=resilience,
            checkpoint_path=checkpoint_path,
            checkpoint_interval=checkpoint_interval, resume=resume,
            solve_context=solve_context,
        )


def analyze_cdr(
    spec: CDRSpec,
    solver: str = "auto",
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    backend: Optional[str] = None,
    resilience=None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: int = 25,
    resume: bool = False,
    solve_context=None,
    **solver_kwargs,
) -> CDRAnalysis:
    """Build and analyze a CDR design point.

    Parameters
    ----------
    spec:
        The design/jitter specification.
    solver:
        Any name registered in :mod:`repro.markov.registry`; ``"auto"``
        picks direct LU for small assembled chains and the paper's
        multigrid (with grid-pairing coarsening) for large ones.  With a
        matrix-free backend, ``auto`` picks power iteration for small
        models and multigrid for large ones (direct LU needs the
        assembled matrix).
    backend:
        Registered TPM backend (``assembled`` / ``matrix-free``);
        ``None`` uses ``spec.backend``.
    resilience:
        ``None`` (default) solves directly, and a solve that stops short
        of ``tol`` raises :class:`~repro.resilience.SolverFailure`
        instead of measuring an unconverged vector.  ``True`` or a
        :class:`~repro.resilience.FallbackPolicy` routes the solve through
        :func:`~repro.resilience.resilient_stationary`: numerical guards
        on every iterate, escalation through the registry fallback chain,
        and -- when the policy carries a memory budget that trips on an
        assembled backend -- one automatic rebuild with the matrix-free
        backend.  The attempt/escalation trail lands on
        :attr:`CDRAnalysis.resilience_events` and in run manifests.
    checkpoint_path, checkpoint_interval, resume:
        Solver-state checkpointing for the resilient path (the CLI's
        ``--checkpoint`` / ``--resume`` flags); see
        :class:`~repro.resilience.SolverCheckpointer`.
    solve_context:
        Optional :class:`~repro.markov.SolveContext`.  Supplies the
        cached coarsening hierarchy to multigrid / Krylov+AMG solves,
        warm-starts the iteration from the context's last solution of a
        structurally identical chain (``x0`` in ``solver_kwargs`` takes
        precedence), and records the converged distribution back into
        the context.  Sweeps and Monte-Carlo campaigns share one context
        across all their points.
    tol, max_iter, solver_kwargs:
        Forwarded to the solver.  A ``monitor`` passed here receives the
        solve's events live (on a resilient run, every attempt's); the
        solver's own recording of the solve is
        :attr:`CDRAnalysis.solver_recording` either way, and the CLI's
        ``--trace`` flag exports it as JSON.

    The whole run is traced: the returned analysis carries the root
    ``cdr.analyze`` span with nested build/solve/measures children
    (:attr:`CDRAnalysis.trace` / :attr:`CDRAnalysis.stage_seconds`), and
    when a :func:`repro.obs.use_tracer` context is active the spans also
    land in that tracer for run-manifest export.
    """
    entry = get_backend(spec.backend if backend is None else backend)
    degradation_event = None
    with _ensure_tracer(), span("cdr.analyze", backend=entry.name) as root:
        model = entry.build(spec)  # emits the cdr.build_tpm child span
        try:
            return _solve_and_measure(
                model, spec, root, solver, tol, max_iter, dict(solver_kwargs),
                backend=entry.name, resilience=resilience,
                checkpoint_path=checkpoint_path,
                checkpoint_interval=checkpoint_interval, resume=resume,
                solve_context=solve_context,
            )
        except Exception as exc:
            from repro.resilience import BudgetExceeded

            if not (
                isinstance(exc, BudgetExceeded)
                and exc.budget == "memory"
                and entry.name == "assembled"
                and resilience is not None
            ):
                raise
            # The assembled TPM blew the memory budget: degrade to the
            # O(n)-memory matrix-free backend and solve there.  More
            # fallback methods cannot un-allocate the matrix; a different
            # backend can.
            degradation_event = {
                "event": "backend_degraded",
                "from_backend": entry.name,
                "to_backend": "matrix-free",
                "reason": str(exc),
            }
            root.set_attributes(backend_degraded="matrix-free")
            get_registry().counter(
                "repro_backend_degradations_total",
                "Analyses degraded from assembled to matrix-free on memory budget",
            ).inc()
    free_entry = get_backend("matrix-free")
    from repro.markov.registry import get_solver
    from repro.resilience import FallbackPolicy

    if solver != "auto" and not get_solver(solver).matrix_free:
        solver = "auto"  # the requested solver cannot run unassembled
    if isinstance(resilience, FallbackPolicy):
        # Peak RSS is monotone: the budget that tripped on the assembled
        # matrix would trip again instantly.  Degrading the backend *is*
        # the recovery, so the retry runs without the memory gate.
        resilience = dataclasses.replace(resilience, memory_budget_bytes=None)
    with _ensure_tracer(), span("cdr.analyze", backend=free_entry.name) as root:
        model = free_entry.build(spec)
        analysis = _solve_and_measure(
            model, spec, root, solver, tol, max_iter, dict(solver_kwargs),
            backend=free_entry.name, resilience=resilience,
            checkpoint_path=checkpoint_path,
            checkpoint_interval=checkpoint_interval, resume=resume,
            solve_context=solve_context,
        )
    analysis.resilience_events.insert(0, degradation_event)
    return analysis
