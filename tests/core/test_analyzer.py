"""Tests for the end-to-end analyzer (S21) and the sweep utilities (S22)."""

import numpy as np
import pytest

from repro import (
    CDRSpec,
    analyze_cdr,
    analyze_model,
    optimal_counter_length,
    sweep_counter_length,
    sweep_parameter,
)
from repro.core.analyzer import CDRAnalysis


def small_spec(**overrides):
    params = dict(
        n_phase_points=64,
        n_clock_phases=16,
        counter_length=3,
        max_run_length=2,
        nw_std=0.08,
        nw_atoms=9,
        nr_max=0.016,
        nr_mean=0.004,
    )
    params.update(overrides)
    return CDRSpec(**params)


@pytest.fixture(scope="module")
def analysis():
    return analyze_cdr(small_spec(), solver="direct")


class TestAnalyzeCDR:
    def test_returns_analysis(self, analysis):
        assert isinstance(analysis, CDRAnalysis)
        assert analysis.n_states == small_spec().expected_state_count()

    def test_stationary_is_distribution(self, analysis):
        eta = analysis.stationary
        assert eta.sum() == pytest.approx(1.0, abs=1e-9)
        assert eta.min() >= -1e-12

    def test_measures_populated(self, analysis):
        assert 0.0 <= analysis.ber <= 1.0
        assert 0.0 <= analysis.ber_discrete <= 1.0
        assert analysis.slip_rate >= 0.0
        assert analysis.mean_symbols_between_slips > 1.0
        assert 0.0 < analysis.phase_rms < 0.5

    def test_timings(self, analysis):
        assert analysis.build_seconds > 0.0
        assert analysis.solve_seconds > 0.0

    def test_stage_seconds(self, analysis):
        stages = analysis.stage_seconds
        assert stages["cdr.build_tpm"] > 0.0
        assert stages["markov.solve"] > 0.0

    def test_trace_spans_recorded(self, analysis):
        assert analysis.trace is not None
        names = [s.name for s in analysis.trace.iter_spans()]
        assert "cdr.analyze" in names
        assert "cdr.build_tpm" in names
        assert "markov.solve" in names
        assert "cdr.measures" in names

    def test_solver_recording_attached(self, analysis):
        rec = analysis.solver_recording
        assert rec is not None
        trace = rec.to_trace()
        assert trace["iterations"] == analysis.solver_result.iterations
        assert trace["method"] == analysis.solver_result.method

    def test_legacy_timing_properties_removed(self, analysis):
        # form_time/solve_time were deprecated aliases of build_seconds /
        # solve_seconds; both are gone now.
        assert not hasattr(analysis, "form_time")
        assert not hasattr(analysis, "solve_time")
        assert analysis.build_seconds > 0.0
        assert analysis.solve_seconds > 0.0

    def test_report_format(self, analysis):
        report = analysis.report()
        assert "COUNTER: 3" in report
        assert "STDnw: 8.0e-02" in report
        assert "BER:" in report
        assert "Size: " in report
        assert "Matrixformtime:" in report
        assert "Solvetime:" in report

    def test_pdf_accessors(self, analysis):
        vals, probs = analysis.phase_error_pdf()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        svals, sprobs = analysis.sampled_phase_pdf()
        assert sprobs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_solvers_agree(self):
        spec = small_spec()
        direct = analyze_cdr(spec, solver="direct")
        mg = analyze_cdr(spec, solver="multigrid", tol=1e-11)
        assert mg.ber == pytest.approx(direct.ber, rel=1e-4)
        assert mg.slip_rate == pytest.approx(direct.slip_rate, rel=1e-4)

    def test_auto_solver_small_uses_direct(self):
        a = analyze_cdr(small_spec(), solver="auto")
        assert a.solver_result.method == "direct"

    def test_auto_solver_large_uses_multigrid(self):
        spec = small_spec(n_phase_points=1024, counter_length=4)
        a = analyze_cdr(spec, solver="auto", tol=1e-9)
        assert a.solver_result.method == "multigrid"
        assert a.solver_result.converged

    def test_unconverged_solve_raises_before_measures(self):
        from repro.resilience import SolverFailure

        with pytest.raises(SolverFailure, match="did not converge") as info:
            analyze_cdr(small_spec(), solver="power", max_iter=2)
        err = info.value
        assert err.method == "power"
        assert err.iteration == 2
        assert err.residual > 1e-10

    def test_analyze_model_without_spec(self):
        model = small_spec().build_model()
        a = analyze_model(model, solver="direct")
        assert a.spec is None
        assert "COUNTER: 3" in a.report()


class TestSolverRecording:
    def test_escalated_run_records_the_winning_attempt(self):
        # One V-cycle cannot converge at M=128, so the resilient chain
        # escalates past multigrid; the recording is the winner's.
        spec = small_spec(n_phase_points=128, counter_length=8)
        analysis = analyze_cdr(
            spec, solver="multigrid", resilience=True, max_iter=1
        )
        attempts = [
            (e["method"], e["status"])
            for e in analysis.resilience_events
            if e["event"] == "solver_attempt"
        ]
        assert attempts[0] == ("multigrid", "failed")
        assert attempts[-1][1] == "converged"
        result = analysis.solver_result
        rec = analysis.solver_recording
        assert rec is result.recording
        assert rec.method == result.method
        assert rec.n_iterations == rec.iterations == result.iterations

    def test_caller_monitor_sees_the_solve(self):
        from repro.markov import RecordingMonitor

        mon = RecordingMonitor()
        analysis = analyze_cdr(small_spec(), solver="power", monitor=mon)
        assert mon is not analysis.solver_recording
        assert mon.events == analysis.solver_recording.events
        assert mon.method == "power"


class TestPaperShapeClaims:
    """The qualitative claims of Figures 4 and 5, as assertions."""

    def test_fig4_noise_increases_ber_by_orders_of_magnitude(self):
        quiet = analyze_cdr(small_spec(nw_std=0.02), solver="direct")
        loud = analyze_cdr(small_spec(nw_std=0.2), solver="direct")
        assert loud.ber > quiet.ber * 1e3

    def test_fig5_counter_length_has_interior_optimum(self):
        """Both noise sources matter -> BER is U-shaped in counter length.

        A coarse phase-select step (few clock phases) makes the bang-bang
        dither of a short counter costly, while the n_r drift punishes a
        long (slow) counter -- the paper's Figure 5 tradeoff.
        """
        spec = small_spec(
            n_clock_phases=8,  # coarse step: dither hurts short counters
            nw_std=0.1,
            nr_max=0.016,      # drift hurts long counters
            nr_mean=0.008,
            nw_atoms=11,
        )
        records = sweep_counter_length(spec, [1, 4, 32], solver="direct")
        bers = [r["ber"] for r in records]
        assert bers[1] < bers[0]
        assert bers[1] < bers[2]

    def test_slips_increase_with_drift(self):
        low = analyze_cdr(small_spec(nr_mean=0.0), solver="direct")
        high = analyze_cdr(small_spec(nr_mean=0.012), solver="direct")
        assert high.slip_rate >= low.slip_rate

    def test_longer_transition_free_runs_hurt(self):
        """The 'longest possible bit sequence with no transitions' spec:
        during a run the detector is blind and drift accumulates
        uncorrected, so BER grows with the run-length limit at fixed
        transition density."""
        short = analyze_cdr(
            small_spec(max_run_length=1, transition_density=0.99,
                       nr_mean=0.012, nr_max=0.016),
            solver="direct",
        )
        long = analyze_cdr(
            small_spec(max_run_length=8, transition_density=0.3,
                       nr_mean=0.012, nr_max=0.016),
            solver="direct",
        )
        assert long.ber > short.ber
        assert long.slip_rate >= short.slip_rate


class TestSweeps:
    def test_sweep_parameter_records(self):
        records = sweep_parameter(
            small_spec(), "nw_std", [0.05, 0.1], solver="direct"
        )
        assert len(records) == 2
        assert records[0]["nw_std"] == 0.05
        for rec in records:
            for key in ("ber", "slip_rate", "n_states", "iterations",
                        "form_time_s", "solve_time_s"):
                assert key in rec

    def test_sweep_ber_monotone_in_nw(self):
        records = sweep_parameter(
            small_spec(), "nw_std", [0.04, 0.08, 0.16], solver="direct"
        )
        bers = [r["ber"] for r in records]
        assert bers[0] < bers[1] < bers[2]

    def test_optimal_counter_length(self):
        spec = small_spec(
            n_clock_phases=8, nw_std=0.1, nr_max=0.016, nr_mean=0.008,
            nw_atoms=11,
        )
        best = optimal_counter_length(spec, [1, 4, 32], solver="direct")
        assert best["counter_length"] == 4

    def test_optimal_requires_values(self):
        with pytest.raises(ValueError):
            optimal_counter_length(small_spec(), [], solver="direct")
