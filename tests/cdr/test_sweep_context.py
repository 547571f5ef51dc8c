"""Campaign-scoped solve contexts in sweeps and Monte-Carlo campaigns.

Acceptance for the solve-context layer: adjacent sweep points share one
coarsening hierarchy (hits, not rebuilds) and warm-start from the nearest
solved neighbor, converging in strictly fewer multigrid iterations than
the cold baseline -- while the physics (phase RMS) stays put.
"""

import numpy as np
import pytest

from repro import CDRSpec, sweep_parameter
from repro.cdr.montecarlo import simulate_cdr_campaign
from repro.markov import SolveContext

#: A dense nw_std grid (adjacent points 1e-4 apart, the spacing of a
#: publication-grade BER curve), where warm starts pay the most.
VALUES = [0.1, 0.1001, 0.1002, 0.1003]


def sweep_spec():
    # The EXT-OP design at M=128: 3,840 states.
    return CDRSpec(
        n_phase_points=128, n_clock_phases=16, counter_length=8,
        max_run_length=2, nw_std=0.1, nw_atoms=9,
    )


@pytest.fixture(scope="module")
def cold_and_warm():
    spec = sweep_spec()
    cold = sweep_parameter(spec, "nw_std", VALUES, solver="multigrid", tol=1e-10)
    ctx = SolveContext()
    warm = sweep_parameter(
        spec, "nw_std", VALUES, solver="multigrid", tol=1e-10,
        solve_context=ctx,
    )
    return cold, warm, ctx


class TestWarmStartedSweep:
    def test_cold_records_have_no_warm_flag(self, cold_and_warm):
        cold, _, _ = cold_and_warm
        assert all("warm_started" not in r for r in cold)
        assert cold.context_stats is None

    def test_first_point_cold_rest_warm(self, cold_and_warm):
        _, warm, _ = cold_and_warm
        flags = [r["warm_started"] for r in warm]
        assert flags == [False] + [True] * (len(VALUES) - 1)

    def test_warm_points_need_strictly_fewer_iterations(self, cold_and_warm):
        cold, warm, _ = cold_and_warm
        # Excluding the (cold) first point, every warm-started point must
        # beat its cold twin outright -- the acceptance criterion.
        for c, w in zip(cold[1:], warm[1:]):
            assert w["iterations"] < c["iterations"], (
                f"nw_std={w['nw_std']}: warm {w['iterations']} !< "
                f"cold {c['iterations']}"
            )

    def test_warm_points_take_at_most_half_the_cold_cycles(self, cold_and_warm):
        # The deterministic form of the warm-sweep floor: past the first
        # point, a warm-started dense sweep needs at most half the cold
        # sweep's V-cycles (cold [11, 11, 11, 11], warm [11, 1, 1, 1]).
        cold, warm, _ = cold_and_warm
        warm_tail = sum(r["iterations"] for r in warm[1:])
        cold_tail = sum(r["iterations"] for r in cold[1:])
        assert 2 * warm_tail <= cold_tail, (warm_tail, cold_tail)

    def test_hierarchy_built_once_then_hit(self, cold_and_warm):
        _, warm, ctx = cold_and_warm
        stats = ctx.stats()
        assert stats["hierarchy_misses"] == 1
        assert stats["hierarchy_hits"] == len(VALUES) - 1
        assert stats["warm_starts"] == len(VALUES) - 1
        assert warm.context_stats == stats

    def test_measures_agree_with_cold_baseline(self, cold_and_warm):
        cold, warm, _ = cold_and_warm
        for c, w in zip(cold, warm):
            np.testing.assert_allclose(
                w["phase_rms"], c["phase_rms"], rtol=0.0, atol=1e-8
            )

    def test_summary_reports_cache_counters(self, cold_and_warm):
        _, warm, _ = cold_and_warm
        text = warm.summary()
        assert "hierarchy cache" in text
        assert "warm starts" in text


class TestWarmStartFlag:
    def test_warm_start_flag_creates_a_context(self):
        spec = sweep_spec()
        result = sweep_parameter(
            spec, "nw_std", VALUES[:2], solver="multigrid", tol=1e-10,
            warm_start=True,
        )
        assert result.context_stats is not None
        assert result.context_stats["warm_starts"] == 1
        assert [r["warm_started"] for r in result] == [False, True]

    def test_context_without_warm_start_still_shares_hierarchies(self):
        spec = sweep_spec()
        ctx = SolveContext()
        result = sweep_parameter(
            spec, "nw_std", VALUES[:2], solver="multigrid", tol=1e-10,
            solve_context=ctx, warm_start=False,
        )
        stats = result.context_stats
        assert stats["hierarchy_hits"] == 1
        assert stats["warm_starts"] == 0
        assert [r["warm_started"] for r in result] == [False, False]
        # The context's own warm-start setting is restored afterwards.
        assert ctx.warm_start


class TestCampaignReference:
    def test_campaign_solves_reference_through_shared_context(self):
        from repro import analyze_cdr
        from repro.cdr import (
            PhaseGrid,
            transition_run_length_source,
        )
        from repro.noise import eye_opening_noise, sonet_drift_noise

        spec = CDRSpec(n_phase_points=64, counter_length=3, nw_std=0.05)
        ctx = SolveContext()
        # Prime the context so the reference solve warm-starts.
        analyze_cdr(spec, solver="multigrid", tol=1e-10, solve_context=ctx)
        grid = PhaseGrid(64)
        campaign = simulate_cdr_campaign(
            grid,
            eye_opening_noise(0.05, n_atoms=9),
            sonet_drift_noise(
                max_ui=grid.step, mean_ui=0.3 * grid.step, grid_step=grid.step
            ),
            3,
            1,
            transition_run_length_source("data", 0.5, 3),
            n_symbols=200,
            seeds=[1, 2],
            reference_spec=spec, solve_context=ctx,
        )
        assert campaign.reference is not None
        assert campaign.reference["warm_started"]
        assert campaign.reference["ber"] >= 0.0
        assert campaign.context_stats["warm_starts"] >= 1
        assert "chain predicts" in campaign.summary()
