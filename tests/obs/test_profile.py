"""Unit tests for operator-level profiling (repro.obs.profile).

The contract under test: instrumentation is invisible when off (identity
pass-through, one contextvar lookup), exact when on (every protocol call
counted with bytes and seconds, capability probes unchanged), additive
nowhere (profiled and unprofiled runs produce bit-identical numerics),
and exportable (manifest section, Prometheus series, collapsed stacks,
speedscope JSON).
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.markov.chain import MarkovChain
from repro.markov.linop import AssembledOperator, as_operator, ensure_csr
from repro.markov.stationary import stationary_distribution
from repro.obs import build_run_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    PROFILE_SCHEMA,
    InstrumentedOperator,
    ProfileSession,
    get_profile_session,
    instrument_operator,
    profiled,
)


def _chain(n=24, seed=3):
    rng = np.random.default_rng(seed)
    P = rng.random((n, n)) + 0.05
    return MarkovChain(P / P.sum(axis=1, keepdims=True))


class TestInstrumentOperator:
    def test_identity_when_no_session(self):
        op = as_operator(_chain())
        assert instrument_operator(op, role="x") is op
        assert get_profile_session() is None

    def test_wraps_inside_session(self):
        op = as_operator(_chain())
        with profiled(metrics=False) as session:
            wrapped = instrument_operator(op, role="x")
            assert isinstance(wrapped, InstrumentedOperator)
            assert wrapped.inner is op
            assert get_profile_session() is session
        assert get_profile_session() is None

    def test_no_double_wrapping(self):
        op = as_operator(_chain())
        with profiled(metrics=False):
            w1 = instrument_operator(op, role="outer")
            w2 = instrument_operator(w1, role="inner")
            assert w2 is w1

    def test_counts_calls_seconds_and_bytes(self):
        op = as_operator(_chain(n=16))
        x = np.full(16, 1.0 / 16)
        with profiled(metrics=False) as session:
            w = instrument_operator(op, role="solve")
            w.rmatvec(x)
            w.rmatvec(x)
            w.matvec(x)
            w.diagonal()
        ops = session.snapshot()["operators"]["solve"]["ops"]
        assert ops["rmatvec"]["calls"] == 2
        assert ops["matvec"]["calls"] == 1
        assert ops["diagonal"]["calls"] == 1
        # rmatvec moves the argument and the result: 2 vectors of 16 f64.
        assert ops["rmatvec"]["bytes"] == 2 * 2 * 16 * 8
        assert ops["rmatvec"]["seconds"] >= 0.0

    def test_results_identical_to_bare_operator(self):
        mc = _chain()
        ref = stationary_distribution(mc, method="power").distribution
        with profiled(metrics=False):
            prof = stationary_distribution(mc, method="power").distribution
        np.testing.assert_array_equal(ref, prof)

    def test_capability_forwarding(self):
        # ensure_csr probes to_csr via getattr; the wrapper must expose it
        # for assembled operators and raise AttributeError for operators
        # without it, exactly like the bare operator.
        op = as_operator(_chain(n=8))
        with profiled(metrics=False) as session:
            w = instrument_operator(op, role="r")
            P = ensure_csr(w)
            assert sp.issparse(P)
            assert session.snapshot()["operators"]["r"]["ops"]["to_csr"]["calls"] == 1

        class _Bare:
            shape = (4, 4)

            def matvec(self, v):
                return v

            def rmatvec(self, x):
                return x

            def diagonal(self):
                return np.zeros(4)

            def row_sums(self):
                return np.ones(4)

        with profiled(metrics=False):
            w = instrument_operator(_Bare(), role="bare")
            with pytest.raises(AttributeError):
                w.to_csr

    def test_triplets_counted_with_their_work(self):
        from repro.markov.lumping import Partition, lumped_tpm

        op = as_operator(_chain(n=8))
        part = Partition(np.arange(8) // 2)
        with profiled(metrics=False) as session:
            C = lumped_tpm(instrument_operator(op, role="t"), part)
            stats = session.snapshot()["operators"]["t"]["ops"]["triplets"]
        assert stats["calls"] == 1
        assert stats["bytes"] > 0
        np.testing.assert_array_equal(C.data, lumped_tpm(op, part).data)

    def test_shape_and_repr(self):
        op = as_operator(_chain(n=9))
        with profiled(metrics=False):
            w = instrument_operator(op, role="s")
            assert w.shape == (9, 9)
            assert "InstrumentedOperator" in repr(w)


class TestSolverThreading:
    @pytest.mark.parametrize("method", ["power", "jacobi", "krylov", "direct"])
    def test_solver_traffic_is_attributed(self, method):
        mc = _chain(n=30, seed=11)
        with profiled(metrics=False) as session:
            res = stationary_distribution(mc, method=method, tol=1e-10)
        assert res.converged
        roles = session.snapshot()["operators"]
        assert f"solver.{method}" in roles

    def test_multigrid_per_level_attribution(self):
        mc = _chain(n=64, seed=5)
        with profiled(metrics=False) as session:
            res = stationary_distribution(
                mc, method="multigrid", tol=1e-10, coarsest_size=8
            )
        assert res.converged
        snapshot = session.snapshot()
        levels = [r for r in snapshot["operators"] if r.startswith("multigrid.L")]
        assert levels, snapshot["operators"]
        l0 = snapshot["operators"]["multigrid.L0"]["ops"]
        assert "smooth.pre" in l0 or "coarsest_solve" in l0

    def test_multigrid_profiled_matches_unprofiled(self):
        mc = _chain(n=80, seed=9)
        ref = stationary_distribution(
            mc, method="multigrid", tol=1e-11, coarsest_size=8
        ).distribution
        with profiled(metrics=False):
            prof = stationary_distribution(
                mc, method="multigrid", tol=1e-11, coarsest_size=8
            ).distribution
        np.testing.assert_allclose(prof, ref, atol=1e-9)

    def test_measure_kernels_attributed(self):
        from repro.scenarios.measures import tv_settling_time

        mc = _chain(n=20, seed=2)
        pi = stationary_distribution(mc).distribution
        start = np.zeros(20)
        start[0] = 1.0
        with profiled(metrics=False) as session:
            tv_settling_time(mc.P, start, pi, epsilon=1e-3, max_steps=5000)
        assert "measure.tv_settling" in session.snapshot()["operators"]


class TestSessionExports:
    def test_snapshot_schema_and_hot_path_ranking(self):
        session = ProfileSession(metrics=False)
        session.record("a", "matvec", 0.5, 100)
        session.record("b", "rmatvec", 2.0, 200)
        session.record("a", "matvec", 0.25, 100)
        snap = session.snapshot()
        assert snap["schema"] == PROFILE_SCHEMA
        hot = snap["hot_path"]
        assert hot[0]["role"] == "b" and hot[0]["seconds"] == 2.0
        assert hot[1] == {
            "role": "a", "op": "matvec", "calls": 2,
            "seconds": 0.75, "bytes": 200,
        }

    def test_metrics_emission(self):
        registry = MetricsRegistry()
        op = as_operator(_chain(n=8))
        x = np.full(8, 0.125)
        with profiled(registry=registry) as _:
            w = instrument_operator(op, role="solve")
            w.rmatvec(x)
        hist = registry.get("repro_operator_call_seconds")
        assert hist.count(role="solve", op="rmatvec") == 1
        counter = registry.get("repro_operator_bytes_total")
        assert counter.value(role="solve", op="rmatvec") == 2 * 8 * 8

    def test_manifest_embeds_active_session(self):
        mc = _chain(n=16)
        with profiled(metrics=False):
            stationary_distribution(mc, method="power")
            manifest = build_run_manifest(kind="test")
        profile = manifest["profile"]
        assert profile["schema"] == PROFILE_SCHEMA
        assert "solver.power" in profile["operators"]
        # And no profile section at all when nothing was profiled.
        assert build_run_manifest(kind="test")["profile"] is None

    def test_stack_capture_and_exports(self, tmp_path):
        def leaf():
            return sum(range(2000))

        def trunk():
            return [leaf() for _ in range(20)]

        with profiled(metrics=False, stacks=True) as session:
            trunk()
        stacks = session.collapsed_stacks()
        assert any("test_profile.py:leaf" in frame
                   for stack in stacks for frame in stack)

        collapsed = tmp_path / "out.collapsed"
        session.write_collapsed(str(collapsed))
        text = collapsed.read_text()
        for line in text.strip().splitlines():
            stack, _, value = line.rpartition(" ")
            assert stack and int(value) > 0

        ss = tmp_path / "out.speedscope.json"
        session.write_speedscope(str(ss))
        doc = json.loads(ss.read_text())
        assert doc["profiles"][0]["type"] == "sampled"
        assert len(doc["profiles"][0]["samples"]) == len(
            doc["profiles"][0]["weights"]
        )
        assert doc["shared"]["frames"]

    def test_stacks_export_requires_capture(self):
        session = ProfileSession(metrics=False, stacks=False)
        with pytest.raises(ValueError, match="stacks"):
            session.collapsed_stacks()


class TestStageCellsFromTrace:
    """The session's ``multigrid.L<k>`` cells derive from the solver's own
    V-cycle events, so the two views of one solve agree exactly."""

    STAGES = (
        ("pre_smooth_time", "smooth.pre"),
        ("post_smooth_time", "smooth.post"),
        ("coarse_build_time", "coarse_build"),
        ("coarsest_solve_time", "coarsest_solve"),
    )

    @pytest.mark.parametrize("backend", ["assembled", "matrix-free"])
    def test_cells_equal_trace_sums(self, backend):
        from repro import CDRSpec, analyze_cdr

        # EXT-OP design at M=128: 3,840 states, levels 3840 -> 512.
        spec = CDRSpec(
            n_phase_points=128, n_clock_phases=16, counter_length=8,
            max_run_length=2, nw_std=0.08, nw_atoms=9,
        )
        with profiled(metrics=False) as session:
            analysis = analyze_cdr(spec, solver="multigrid", backend=backend)
        expected = {}
        for event in analysis.solver_recording.vcycle_events:
            cells = expected.setdefault(f"multigrid.L{event.level}", {})
            for field, kind in self.STAGES:
                cells[kind] = cells.get(kind, 0.0) + getattr(event, field)
        roles = {r for r in session.operators if r.startswith("multigrid.L")}
        assert roles == set(expected) == {"multigrid.L0", "multigrid.L1"}
        for role, cells in expected.items():
            ops = session.operators[role]
            for kind, seconds in cells.items():
                if seconds:
                    assert ops[kind][1] == seconds, (role, kind)
                else:
                    assert kind not in ops, (role, kind)
        recorded = {kind for role in roles for kind in session.operators[role]}
        assert recorded == {kind for _, kind in self.STAGES}


class TestMultigridCoarsestUnwrap:
    def test_instrumented_assembled_keeps_direct_coarsest(self):
        # A chain small enough to be its own coarsest level must get the
        # direct LU solve whether or not it is wrapped for profiling --
        # profiling must never flip the numerical path.
        from repro.markov.multigrid import MultigridSolver

        mc = _chain(n=12, seed=4)
        solver = MultigridSolver()
        ref = solver.solve(mc.P).distribution
        with profiled(metrics=False):
            wrapped = instrument_operator(
                AssembledOperator(sp.csr_matrix(mc.P)), role="t"
            )
            prof = solver._coarsest_solve(wrapped, np.full(12, 1 / 12))
        np.testing.assert_allclose(prof, ref, atol=1e-12)
