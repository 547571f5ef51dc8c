"""Tests for the solver telemetry layer (repro.markov.monitor)."""

import json

import numpy as np
import pytest

from repro.markov import (
    MarkovChain,
    NullMonitor,
    RecordingMonitor,
    SolverMonitor,
    TeeMonitor,
    load_trace,
    solve_direct,
    solve_jacobi,
    solve_multigrid,
    solve_power,
    stationary_distribution,
)
from repro.markov.monitor import TRACE_SCHEMA, IterationEvent, VCycleLevelEvent


class TestProtocol:
    def test_null_and_recording_satisfy_protocol(self):
        assert isinstance(NullMonitor(), SolverMonitor)
        assert isinstance(RecordingMonitor(), SolverMonitor)
        assert isinstance(TeeMonitor(), SolverMonitor)

    def test_null_monitor_ignores_everything(self):
        m = NullMonitor()
        m.solve_started("power", 10, 1e-10)
        m.iteration_finished(1, 0.5, 0.001)
        m.vcycle_level(VCycleLevelEvent(1, 0, 10, 28, 5, 0.0, 0.0))
        m.solve_finished(True, 1, 0.5, 0.001)  # no state, nothing to assert


class TestRecordingMonitor:
    def test_records_events_in_order(self):
        m = RecordingMonitor()
        m.solve_started("power", 4, 1e-10)
        m.iteration_finished(1, 0.5, 0.001)
        m.iteration_finished(2, 0.25, 0.002)
        m.solve_finished(False, 2, 0.25, 0.002)
        assert m.method == "power"
        assert m.n_states == 4
        assert m.n_iterations == 2
        assert m.residual_history == [0.5, 0.25]
        assert m.last_residual() == 0.25
        assert m.finished and m.converged is False

    def test_single_use(self):
        m = RecordingMonitor()
        m.solve_started("power", 4, 1e-10)
        with pytest.raises(RuntimeError, match="fresh recorder"):
            m.solve_started("jacobi", 4, 1e-10)

    def test_empty_recorder(self):
        m = RecordingMonitor()
        assert m.n_iterations == 0
        assert m.last_residual() is None
        assert not m.finished


class TestTeeMonitor:
    def test_fans_out_to_all(self):
        a, b = RecordingMonitor(), RecordingMonitor()
        tee = TeeMonitor(a, b)
        tee.solve_started("jacobi", 8, 1e-8)
        tee.iteration_finished(1, 0.1, 0.01)
        tee.vcycle_level(VCycleLevelEvent(1, 0, 8, 20, 4, 0.001, 0.002))
        tee.solve_finished(True, 1, 0.1, 0.01)
        for m in (a, b):
            assert m.method == "jacobi"
            assert m.n_iterations == 1
            assert len(m.vcycle_events) == 1
            assert m.converged is True

    def test_none_monitors_dropped(self):
        a = RecordingMonitor()
        tee = TeeMonitor(a, None)
        tee.solve_started("x", 1, 1e-10)
        assert tee.monitors == (a,)


class TestSolverIntegration:
    def test_power_emits_per_iteration(self, birth_death_chain):
        rec = RecordingMonitor()
        res = solve_power(birth_death_chain.P, tol=1e-10, monitor=rec)
        assert rec.method == "power"
        assert rec.n_states == birth_death_chain.n_states
        assert len(rec.events) == res.iterations
        assert rec.events[-1].residual == res.residual
        assert rec.residual_history == res.residual_history
        assert rec.converged is True

    def test_direct_emits_single_event(self, two_state_chain):
        rec = RecordingMonitor()
        res = solve_direct(two_state_chain.P, monitor=rec)
        assert res.iterations == 1
        assert len(rec.events) == 1
        assert rec.events[0].residual == res.residual

    def test_multigrid_emits_level_events(self, birth_death_chain):
        rec = RecordingMonitor()
        res = solve_multigrid(
            birth_death_chain.P, tol=1e-10, coarsest_size=8, monitor=rec
        )
        assert res.converged
        assert len(rec.events) == res.iterations
        assert rec.vcycle_events, "expected per-level V-cycle telemetry"
        cycles = {e.cycle for e in rec.vcycle_events}
        assert cycles == set(range(1, res.iterations + 1))
        levels = sorted({e.level for e in rec.vcycle_events})
        assert levels[0] == 0 and len(levels) >= 2
        fine = [e for e in rec.vcycle_events if e.level == 0]
        for e in fine:
            assert e.n_states == birth_death_chain.n_states
            assert e.nnz == birth_death_chain.P.nnz
            assert 0 < e.n_blocks < e.n_states
            assert e.pre_smooth_time >= 0.0 and e.post_smooth_time >= 0.0
        # Coarsest level is solved directly: aggregate count 0 by convention.
        coarsest = [e for e in rec.vcycle_events if e.level == levels[-1]]
        assert all(e.n_blocks == 0 for e in coarsest)

    def test_frontend_threads_monitor(self, birth_death_chain):
        rec = RecordingMonitor()
        res = stationary_distribution(
            birth_death_chain, method="jacobi", tol=1e-10, monitor=rec
        )
        assert rec.method.startswith("jacobi")
        assert len(rec.events) == res.iterations

    def test_monitor_does_not_change_answer(self, birth_death_chain):
        plain = solve_jacobi(birth_death_chain.P, tol=1e-10)
        monitored = solve_jacobi(
            birth_death_chain.P, tol=1e-10, monitor=RecordingMonitor()
        )
        np.testing.assert_array_equal(plain.distribution, monitored.distribution)
        assert plain.iterations == monitored.iterations
        assert plain.residual == monitored.residual

    def test_eigen_small_chain_falls_back_with_monitor(self, two_state_chain):
        from repro.markov import solve_eigen

        rec = RecordingMonitor()
        res = solve_eigen(two_state_chain.P, tol=1e-10, monitor=rec)
        assert rec.method == "direct"  # n < 3 falls back to the direct solver
        assert len(rec.events) == res.iterations == 1


class TestTraceExport:
    def test_roundtrip(self, tmp_path, birth_death_chain):
        rec = RecordingMonitor()
        res = solve_multigrid(
            birth_death_chain.P, tol=1e-10, coarsest_size=8, monitor=rec
        )
        path = tmp_path / "trace.json"
        rec.write_trace(str(path))
        trace = load_trace(str(path))
        assert trace["schema"] == TRACE_SCHEMA
        assert trace["method"] == res.method
        assert trace["iterations"] == res.iterations
        assert trace["converged"] == res.converged
        assert trace["residual"] == res.residual
        assert len(trace["events"]) == res.iterations
        assert trace["events"][-1]["residual"] == res.residual
        assert len(trace["vcycle_events"]) == len(rec.vcycle_events)
        first = trace["vcycle_events"][0]
        assert set(first) == {
            "cycle", "level", "n_states", "nnz", "n_blocks",
            "pre_smooth_time", "post_smooth_time",
            "coarse_build_time", "coarsest_solve_time",
        }

    def test_write_to_file_object(self, two_state_chain):
        import io

        rec = RecordingMonitor()
        solve_direct(two_state_chain.P, monitor=rec)
        buf = io.StringIO()
        rec.write_trace(buf)
        trace = json.loads(buf.getvalue())
        assert trace["method"] == "direct"

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "someone-else/9"}))
        with pytest.raises(ValueError, match="schema"):
            load_trace(str(path))

    def test_event_dataclasses_are_frozen(self):
        e = IterationEvent(1, 0.5, 0.01)
        with pytest.raises(Exception):
            e.residual = 0.1
        v = VCycleLevelEvent(1, 0, 10, 30, 5, 0.0, 0.0)
        with pytest.raises(Exception):
            v.level = 1
