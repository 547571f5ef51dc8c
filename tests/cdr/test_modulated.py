"""Tests for the Markov-modulated drift builder (correlated / sinusoidal
jitter -- the paper's "correlated or cumulative jitter may also be
specified" and sinusoidal-jitter remarks, implemented with hidden states)."""

import numpy as np
import pytest

from repro.cdr import (
    PhaseGrid,
    build_cdr_chain,
    build_modulated_cdr_chain,
    bursty_drift_source,
    sinusoidal_drift_source,
)
from repro.core.measures import bit_error_rate, cycle_slip_rate
from repro.fsm import MarkovSource
from repro.markov import MarkovChain, build_hierarchy, solve_direct
from repro.noise import DiscreteDistribution, eye_opening_noise


@pytest.fixture()
def grid():
    return PhaseGrid(32)


@pytest.fixture()
def nw():
    return eye_opening_noise(0.06, n_atoms=7)


@pytest.fixture()
def nr(grid):
    return DiscreteDistribution(
        [-grid.step, 0.0, grid.step], [0.25, 0.5, 0.25]
    )


def trivial_drift():
    return MarkovSource("drift", MarkovChain(np.array([[1.0]])), emit=[0.0])


class TestSinusoidalDriftSource:
    def test_emissions_sum_to_zero_over_period(self):
        src = sinusoidal_drift_source("sj", 0.1, 16, dwell_jitter=0.0)
        assert sum(src.symbols) == pytest.approx(0.0, abs=1e-12)

    def test_accumulated_emissions_trace_sinusoid(self):
        T, A = 32, 0.2
        src = sinusoidal_drift_source("sj", A, T, dwell_jitter=0.0)
        acc = np.cumsum(src.symbols)
        assert acc.max() == pytest.approx(A, rel=1e-6)
        assert acc.min() == pytest.approx(-A, rel=0.1)

    def test_ring_rotates(self):
        src = sinusoidal_drift_source("sj", 0.1, 8, dwell_jitter=0.1)
        branches = dict(src.branches(3))
        assert branches[4] == pytest.approx(0.9)
        assert branches[3] == pytest.approx(0.1)

    def test_stationary_uniform_over_ring(self):
        src = sinusoidal_drift_source("sj", 0.1, 8, dwell_jitter=0.05)
        eta = solve_direct(src.chain.P).distribution
        np.testing.assert_allclose(eta, 1.0 / 8, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            sinusoidal_drift_source("sj", -0.1, 8)
        with pytest.raises(ValueError):
            sinusoidal_drift_source("sj", 0.1, 1)
        with pytest.raises(ValueError):
            sinusoidal_drift_source("sj", 0.1, 8, dwell_jitter=1.0)


class TestBurstyDriftSource:
    def test_emissions(self):
        src = bursty_drift_source("b", 0.0, 0.02, 0.01, 0.2)
        assert src.symbols == [0.0, 0.02]

    def test_burst_occupancy(self):
        src = bursty_drift_source("b", 0.0, 0.02, 0.01, 0.2)
        eta = solve_direct(src.chain.P).distribution
        assert eta[1] == pytest.approx(0.01 / 0.21, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_drift_source("b", 0.0, 0.02, 0.0, 0.2)


class TestBuilderEquivalence:
    def test_trivial_modulation_equals_base_model(self, grid, nw, nr):
        base = build_cdr_chain(
            grid=grid, nw=nw, nr=nr, counter_length=2, phase_step_units=2,
            max_run_length=2,
        )
        mod = build_modulated_cdr_chain(
            grid=grid, nw=nw, drift_source=trivial_drift(), nr=nr,
            counter_length=2, phase_step_units=2, max_run_length=2,
        )
        assert mod.n_states == base.n_states
        diff = (base.chain.P - mod.chain.P)
        assert abs(diff).max() < 1e-14
        sdiff = (base.slip_matrix - mod.slip_matrix)
        assert sdiff.nnz == 0 or abs(sdiff).max() < 1e-14


class TestModulatedModel:
    @pytest.fixture()
    def model(self, grid, nw, nr):
        sj = sinusoidal_drift_source("sj", 0.1, 8)
        return build_modulated_cdr_chain(
            grid=grid, nw=nw, drift_source=sj, nr=nr,
            counter_length=2, phase_step_units=2, max_run_length=2,
        )

    def test_is_stochastic(self, model):
        np.testing.assert_allclose(model.chain.row_sums(), 1.0, atol=1e-9)

    def test_state_count(self, model):
        assert model.n_states == 2 * 8 * 3 * 32
        assert model.n_drift_states == 8

    def test_state_index_layout(self, model):
        i = model.state_index(1, 3, 0, 5)
        assert i == ((1 * 8 + 3) * 3 + 1) * 32 + 5

    def test_index_validation(self, model):
        with pytest.raises(ValueError):
            model.state_index(0, 99, 0, 0)

    def test_marginals(self, model):
        eta = solve_direct(model.chain.P).distribution
        pm = model.phase_marginal(eta)
        dm = model.drift_marginal(eta)
        assert pm.sum() == pytest.approx(1.0, abs=1e-9)
        assert dm.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(dm, 1.0 / 8, atol=1e-6)

    def test_measures_work_via_duck_typing(self, model):
        eta = solve_direct(model.chain.P).distribution
        assert 0.0 <= bit_error_rate(model, eta) <= 1.0
        assert cycle_slip_rate(model, eta) >= 0.0

    def test_multigrid_partitions(self, model):
        parts = build_hierarchy(
            model.chain, strategy=model.multigrid_strategy(), coarsest_size=1
        ).partitions
        assert parts[0].n_states == model.n_states
        # (d, h, c, m) = (2, 8, 3, 32) -> (1, 4, 2, 16): drift pairs too.
        assert parts[0].n_blocks == model.n_states // 12

    def test_multigrid_matches_direct(self, model):
        from repro.markov import solve_multigrid

        ref = solve_direct(model.chain.P).distribution
        res = solve_multigrid(
            model.chain.P, strategy=model.multigrid_strategy(),
            tol=1e-10, nu_pre=4, nu_post=4, coarsest_size=1024,
        )
        assert res.converged
        assert np.abs(res.distribution - ref).sum() < 1e-7

    def test_validation(self, grid, nw, nr):
        with pytest.raises(ValueError, match="counter_length"):
            build_modulated_cdr_chain(
                grid=grid, nw=nw, drift_source=trivial_drift(),
                counter_length=0, phase_step_units=1,
            )
        with pytest.raises(ValueError, match="exceed the grid"):
            build_modulated_cdr_chain(
                grid=PhaseGrid(4), nw=nw,
                drift_source=sinusoidal_drift_source("sj", 0.9, 4),
                counter_length=1, phase_step_units=3,
            )


class TestJitterTrackingPhysics:
    """The reason hidden-state modulation matters: the loop tracks slow
    jitter but not fast jitter."""

    def run(self, grid, nw, nr, period):
        sj = sinusoidal_drift_source("sj", 0.12, period)
        model = build_modulated_cdr_chain(
            grid=grid, nw=nw, drift_source=sj, nr=nr,
            counter_length=2, phase_step_units=2, max_run_length=2,
        )
        eta = solve_direct(model.chain.P).distribution
        return bit_error_rate(model, eta)

    def test_slow_jitter_tracked_fast_jitter_not(self, grid, nw, nr):
        # max trackable slope here is ~ G * overflow-rate ~ 0.016 UI/symbol;
        # period 64 stays below it (slope 2*pi*A/T ~ 0.012), period 4 is
        # far above (~0.19).
        slow = self.run(grid, nw, nr, period=64)
        fast = self.run(grid, nw, nr, period=4)
        assert fast > 10.0 * slow

    def test_amplitude_monotonicity(self, grid, nw, nr):
        def ber_at(amp):
            sj = sinusoidal_drift_source("sj", amp, 8)
            model = build_modulated_cdr_chain(
                grid=grid, nw=nw, drift_source=sj, nr=nr,
                counter_length=2, phase_step_units=2, max_run_length=2,
            )
            eta = solve_direct(model.chain.P).distribution
            return bit_error_rate(model, eta)

        assert ber_at(0.2) > ber_at(0.05)
