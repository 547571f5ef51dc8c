"""Acceptance: instrumentation adds no work to a default-spec analysis.

Wall-clock overhead ratios are noise on a shared machine, so this suite
asserts the deterministic counts behind "the instrumentation is cheap":
tracing records a fixed handful of spans whatever the iteration count,
the disabled profiling hook wraps nothing and records nothing, and the
resilient happy path makes exactly the solver applies of the plain path.
The timing itself is the end-to-end benchmark's ``trace.overhead``
metric (``benchmarks/e2e``): traced over untraced seconds of one pass.
"""

import numpy as np

from repro import CDRSpec, analyze_cdr
from repro.markov.linop import as_operator
from repro.obs import Tracer, profile, use_tracer
from repro.obs.profile import instrument_operator, profiled


def _span_count(spans) -> int:
    return sum(1 + _span_count(s.children) for s in spans)


def _traced(spec, **kwargs):
    tracer = Tracer()
    with use_tracer(tracer):
        result = analyze_cdr(spec, solver="auto", **kwargs)
    return _span_count(tracer.roots), result.solver_result.iterations


def _apply_counts(spec, **kwargs):
    with profiled(metrics=False) as session:
        analyze_cdr(spec, solver="auto", **kwargs)
    return {
        (role, kind): cell[0]
        for role, ops in session.operators.items()
        for kind, cell in ops.items()
    }


def test_tracing_span_count_is_independent_of_iterations():
    # Spans are per pipeline stage, never per iteration: a solve that
    # iterates more records exactly the same span tree.
    spec = CDRSpec()  # the paper's default design point
    spans_tight, iters_tight = _traced(spec, tol=1e-10)
    spans_loose, iters_loose = _traced(spec, tol=1e-6)
    assert iters_tight > iters_loose
    assert spans_tight == spans_loose <= 10


def test_resilient_happy_path_adds_no_applies():
    # Guards and fallback bookkeeping are per-iterate float compares on a
    # convergent solve: no extra operator application, no extra cycle.
    spec = CDRSpec()
    plain = _apply_counts(spec)
    resilient = _apply_counts(spec, resilience=True)
    assert plain[("solver.multigrid", "rmatvec")] > 0
    assert resilient == plain


def test_profiling_off_records_nothing(monkeypatch):
    # instrument_operator sits in every solver dispatch and measure kernel.
    # With no active ProfileSession it must wrap nothing and record nothing.
    wrapped, recorded = [], []
    init = profile.InstrumentedOperator.__init__
    record = profile.ProfileSession.record

    def counting_init(self, *args, **kwargs):
        wrapped.append(1)
        init(self, *args, **kwargs)

    def counting_record(self, *args, **kwargs):
        recorded.append(1)
        record(self, *args, **kwargs)

    monkeypatch.setattr(profile.InstrumentedOperator, "__init__", counting_init)
    monkeypatch.setattr(profile.ProfileSession, "record", counting_record)
    spec = CDRSpec()
    analyze_cdr(spec, solver="auto")
    assert wrapped == [] and recorded == []

    # The same hooks are live under a session (the count above is not
    # vacuous).
    with profiled(metrics=False):
        analyze_cdr(spec, solver="auto")
    assert wrapped and recorded


def test_disabled_hook_is_identity():
    op = as_operator(np.eye(4))
    assert instrument_operator(op, role="noop") is op
    with profiled(metrics=False):
        inner = instrument_operator(op, role="noop")
        assert inner is not op
        # Already-instrumented operators pass through: one count per apply.
        assert instrument_operator(inner, role="outer") is inner
