"""Tests for the vectorized CDR chain builder (S18)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cdr import (
    CDRTransitionOperator,
    PhaseGrid,
    bernoulli_transition_source,
    build_cdr_chain,
    transition_run_length_source,
)
from repro.fsm import IIDSource
from repro.markov import build_hierarchy, classify, solve_direct, solve_multigrid
from repro.noise import DiscreteDistribution, eye_opening_noise, sonet_drift_noise


#: Both CDR chain constructors; they must validate their inputs alike.
BUILDERS = (build_cdr_chain, CDRTransitionOperator)


def small_model(build=build_cdr_chain, **overrides):
    grid = overrides.pop("grid", PhaseGrid(32))
    params = dict(
        grid=grid,
        nw=overrides.pop("nw", eye_opening_noise(0.06, n_atoms=7)),
        nr=overrides.pop(
            "nr", sonet_drift_noise(max_ui=grid.step, mean_ui=0.25 * grid.step,
                                    grid_step=grid.step)
        ),
        counter_length=overrides.pop("counter_length", 3),
        phase_step_units=overrides.pop("phase_step_units", 2),
    )
    params.update(overrides)
    return build(**params)


class TestBuilderBasics:
    def test_state_count(self):
        model = small_model()
        # default source: L=3 -> D=3; N=3 -> C=5; M=32
        assert model.n_states == 3 * 5 * 32
        assert model.n_data_states == 3
        assert model.n_counter_states == 5
        assert model.n_phase_points == 32

    def test_chain_is_stochastic(self):
        model = small_model()
        np.testing.assert_allclose(model.chain.row_sums(), 1.0, atol=1e-9)

    def test_chain_has_unique_ergodic_class(self):
        """The product space may contain a few unreachable combinations
        (the paper: the reachable state space "is a subset of the
        Cartesian product"), but there must be exactly one recurrent
        class, and it must be aperiodic, so the stationary distribution is
        unique."""
        from repro.markov import period

        model = small_model()
        s = classify(model.chain)
        assert len(s.recurrent) == 1
        assert s.recurrent[0].size >= 0.9 * model.n_states
        assert period(model.chain, int(s.recurrent[0][0])) == 1

    def test_form_time_recorded(self):
        assert small_model().form_time > 0.0

    def test_repr(self):
        assert "CDRChainModel" in repr(small_model())

    def test_validation(self):
        grid = PhaseGrid(32)
        nw = eye_opening_noise(0.05, n_atoms=5)
        nr = DiscreteDistribution.delta(0.0)
        with pytest.raises(ValueError, match="counter_length"):
            build_cdr_chain(grid, nw, nr, counter_length=0, phase_step_units=1)
        with pytest.raises(ValueError, match="phase_step_units"):
            build_cdr_chain(grid, nw, nr, counter_length=2, phase_step_units=0)

    def test_rejects_non_indicator_source(self):
        grid = PhaseGrid(16)
        bad = IIDSource("data", DiscreteDistribution([0.0, 2.0], [0.5, 0.5]))
        for build in BUILDERS:
            with pytest.raises(ValueError, match="transition indicators"):
                build(
                    grid,
                    eye_opening_noise(0.05, n_atoms=5),
                    DiscreteDistribution.delta(0.0),
                    counter_length=2,
                    phase_step_units=1,
                    data_source=bad,
                )

    def test_rejects_moves_exceeding_grid(self):
        grid = PhaseGrid(4)
        with pytest.raises(ValueError, match="exceed the grid"):
            build_cdr_chain(
                grid,
                eye_opening_noise(0.05, n_atoms=5),
                DiscreteDistribution.delta(0.4),  # ~2 steps + g=3 > 4
                counter_length=1,
                phase_step_units=3,
            )


class TestLayout:
    def test_index_roundtrip(self):
        model = small_model()
        for d in range(model.n_data_states):
            for cv in (-2, 0, 2):
                for m in (0, 13, 31):
                    i = model.state_index(d, cv, m)
                    assert model.state_of_index(i) == (d, cv, m)

    def test_index_bounds(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.state_index(99, 0, 0)
        with pytest.raises(ValueError):
            model.state_of_index(model.n_states)

    def test_marginals_sum_to_one(self):
        model = small_model()
        eta = solve_direct(model.chain.P).distribution
        for marg in (
            model.phase_marginal(eta),
            model.counter_marginal(eta),
            model.data_marginal(eta),
        ):
            assert marg.sum() == pytest.approx(1.0, abs=1e-9)
            assert marg.min() >= -1e-12

    def test_phase_marginal_size_check(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.phase_marginal(np.ones(3))

    def test_phase_values_per_state(self):
        model = small_model()
        vals = model.phase_values_per_state()
        assert vals.shape == (model.n_states,)
        i = model.state_index(1, 0, 5)
        assert vals[i] == pytest.approx(model.grid.value_of(5))


class TestSignMasses:
    def test_masses_sum_to_one_per_phase(self):
        model = small_model()
        total = sum(model.sign_masses[o] for o in (-1, 0, 1))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_positive_phase_mostly_lag(self):
        model = small_model()
        m_hi = model.n_phase_points - 1  # phi ~ +0.48, far beyond nw
        assert model.sign_masses[1][m_hi] == pytest.approx(1.0)
        assert model.sign_masses[-1][0] == pytest.approx(1.0)


class TestDynamics:
    def test_loop_centers_phase(self):
        """With symmetric noise the stationary phase error concentrates
        around zero: the loop locks."""
        model = small_model(
            nr=DiscreteDistribution([-0.03125, 0.0, 0.03125], [0.2, 0.6, 0.2])
        )
        eta = solve_direct(model.chain.P).distribution
        pdf = model.phase_marginal(eta)
        phi = model.grid.values
        center_mass = pdf[np.abs(phi) < 0.25].sum()
        assert center_mass > 0.99
        assert abs(model.mean_phase(eta)) < 0.02

    def test_symmetric_spec_gives_symmetric_pdf(self):
        model = small_model(
            nr=DiscreteDistribution([-0.03125, 0.0, 0.03125], [0.2, 0.6, 0.2])
        )
        eta = solve_direct(model.chain.P).distribution
        pdf = model.phase_marginal(eta)
        np.testing.assert_allclose(pdf, pdf[::-1], atol=1e-9)

    def test_drift_shifts_mean_phase(self):
        """Positive-mean n_r pushes the stationary phase error positive
        (the loop lags the frequency offset)."""
        base = small_model(
            nr=DiscreteDistribution([-0.03125, 0.0, 0.03125], [0.2, 0.6, 0.2])
        )
        drift = small_model(
            nr=DiscreteDistribution([0.0, 0.03125], [0.5, 0.5])
        )
        eta0 = solve_direct(base.chain.P).distribution
        eta1 = solve_direct(drift.chain.P).distribution
        assert drift.mean_phase(eta1) > base.mean_phase(eta0) + 0.001

    def test_more_noise_wider_pdf(self):
        quiet = small_model(nw=eye_opening_noise(0.02, n_atoms=7))
        loud = small_model(nw=eye_opening_noise(0.10, n_atoms=7))
        eta_q = solve_direct(quiet.chain.P).distribution
        eta_l = solve_direct(loud.chain.P).distribution

        def std(model, eta):
            pdf = model.phase_marginal(eta)
            mu = np.dot(model.grid.values, pdf)
            return np.sqrt(np.dot((model.grid.values - mu) ** 2, pdf))

        assert std(loud, eta_l) > std(quiet, eta_q)


class TestSlipMatrix:
    def test_dominated_by_tpm(self):
        model = small_model()
        diff = (model.chain.P - model.slip_matrix).toarray()
        assert diff.min() >= -1e-12

    def test_slips_only_near_boundary(self):
        model = small_model()
        E = model.slip_matrix.tocoo()
        M = model.n_phase_points
        max_move = model.phase_step_units + int(
            np.max(np.abs(model.nr_steps.values))
        )
        for r in np.unique(E.row):
            m = r % M
            assert m < max_move or m >= M - max_move

    def test_no_drift_no_step_no_slips(self):
        # With n_r == 0 every move is a multiple of the step G=2, so the
        # builder correctly warns about the decoupled phase lattice.
        with pytest.warns(RuntimeWarning, match="residue classes"):
            model = small_model(
                nw=DiscreteDistribution.delta(0.0),
                nr=DiscreteDistribution.delta(0.0),
            )
        assert model.slip_matrix.nnz == 0

    def test_decoupled_lattice_warns(self):
        for build in BUILDERS:
            with pytest.warns(RuntimeWarning, match="non-communicating"):
                small_model(
                    nr=DiscreteDistribution.delta(2 * PhaseGrid(32).step),
                    build=build,
                )

    def test_slip_rate_positive_with_drift(self):
        model = small_model()
        eta = solve_direct(model.chain.P).distribution
        from repro.markov import stationary_event_rate

        assert stationary_event_rate(eta, model.slip_matrix) > 0.0


class TestStationaryFluxBalance:
    def test_phase_index_is_stationary(self):
        """Exact invariant: in stationarity the expected change of the
        phase *index* (a bounded state function) is zero each symbol.
        Computed transition-by-transition from P and eta."""
        model = small_model()
        eta = solve_direct(model.chain.P).distribution
        coo = model.chain.P.tocoo()
        M = model.n_phase_points
        dm_true = (coo.col % M).astype(np.int64) - (coo.row % M)
        mean_change = float(np.sum(eta[coo.row] * coo.data * dm_true))
        assert mean_change == pytest.approx(0.0, abs=1e-10)

    def test_drift_budget_equals_wrap_flux(self):
        """Exact budget: mean physical phase move per symbol (loop
        correction + drift, in grid steps) equals M times the signed wrap
        flux -- every net step of drift the loop cannot absorb must exit
        through the boundary as cycle slips."""
        model = small_model()
        eta = solve_direct(model.chain.P).distribution
        coo = model.chain.P.tocoo()
        M = model.n_phase_points
        dm_true = (coo.col % M).astype(np.int64) - (coo.row % M)
        # physical shift: wrap-aware signed distance (|shift| < M/2 here)
        shift = (dm_true + M // 2) % M - M // 2
        wraps = (shift - dm_true) // M  # +1 for upward wrap, -1 downward
        mean_shift = float(np.sum(eta[coo.row] * coo.data * shift))
        wrap_flux = float(np.sum(eta[coo.row] * coo.data * wraps))
        assert mean_shift == pytest.approx(M * wrap_flux, abs=1e-10)
        # and the unsigned wrap flux is exactly the slip rate
        from repro.markov import stationary_event_rate

        unsigned = float(np.sum(eta[coo.row] * coo.data * np.abs(wraps)))
        assert unsigned == pytest.approx(
            stationary_event_rate(eta, model.slip_matrix), rel=1e-9, abs=1e-15
        )


class TestMultigridIntegration:
    def test_partitions_halve_phase_axis(self):
        model = small_model()  # (d, c, m) = (3, 5, 32)
        parts = build_hierarchy(
            model.chain,
            strategy=model.multigrid_strategy(coarsest_phase_points=4),
            coarsest_size=1,
        ).partitions
        # Every axis halves (ceil), phase down to 4 points:
        # (3, 5, 32) -> (2, 3, 16) -> (1, 2, 8) -> (1, 1, 4)
        assert [p.n_blocks for p in parts] == [96, 16, 4]
        assert parts[0].n_states == model.n_states

    def test_partitions_validation(self):
        with pytest.raises(ValueError):
            small_model().multigrid_strategy(coarsest_phase_points=1)

    def test_multigrid_matches_direct(self):
        model = small_model()
        ref = solve_direct(model.chain.P).distribution
        res = solve_multigrid(
            model.chain,
            strategy=model.multigrid_strategy(coarsest_phase_points=4),
            tol=1e-11,
            coarsest_size=1024,
        )
        assert res.converged
        assert np.abs(res.distribution - ref).sum() < 1e-8


class TestStructureReport:
    def test_fields(self):
        model = small_model()
        rep = model.structure_report()
        assert rep["n_states"] == model.n_states
        assert rep["nnz"] == model.chain.nnz
        assert 0.0 < rep["density"] < 1.0
        assert rep["nnz_per_row"] > 1.0
        assert 0.0 <= rep["fraction_counter_preserving"] <= 1.0
        assert rep["form_time_s"] > 0.0

    def test_phase_moves_banded(self):
        model = small_model()
        rep = model.structure_report()
        max_expected = model.phase_step_units + int(
            np.abs(model.nr_steps.values).max()
        )
        assert 0 < rep["max_phase_move_steps"] <= max_expected


class TestAlternativeSources:
    def test_bernoulli_source(self):
        grid = PhaseGrid(32)
        model = build_cdr_chain(
            grid,
            eye_opening_noise(0.05, n_atoms=5),
            sonet_drift_noise(max_ui=grid.step, mean_ui=0.0, grid_step=grid.step),
            counter_length=2,
            phase_step_units=2,
            data_source=bernoulli_transition_source("data", 0.5),
        )
        assert model.n_data_states == 2
        np.testing.assert_allclose(model.chain.row_sums(), 1.0, atol=1e-9)

    def test_run_length_params_passthrough(self):
        grid = PhaseGrid(16)
        model = build_cdr_chain(
            grid,
            eye_opening_noise(0.05, n_atoms=5),
            DiscreteDistribution.delta(0.0),
            counter_length=2,
            phase_step_units=1,
            transition_density=0.7,
            max_run_length=5,
        )
        assert model.n_data_states == 5
