"""Cross-validation: the literal Figure-2 FSM network (S12+S14-S17) must
agree exactly with the vectorized builder (S18).

The network shares no code with the operator's ``RollPlan``, through
which both CDR backends are assembled, so it is the independent oracle
for that single enumeration.
"""

import numpy as np
import pytest

from repro.cdr import (
    CDRTransitionOperator,
    PhaseGrid,
    build_cdr_chain,
    build_cdr_network,
    compile_cdr_network,
)
from repro.markov import (
    solve_direct,
    stationary_event_rate,
)
from repro.noise import DiscreteDistribution


def tiny_params(phase_step_units=3):
    grid = PhaseGrid(16)
    return dict(
        grid=grid,
        nw=DiscreteDistribution([-0.1, 0.0, 0.1], [0.25, 0.5, 0.25]),
        nr=DiscreteDistribution(
            [-grid.step, 0.0, grid.step], [0.2, 0.55, 0.25]
        ),
        counter_length=2,
        phase_step_units=phase_step_units,
        transition_density=0.5,
        max_run_length=2,
    )


def build_pair(params):
    return params, build_cdr_chain(**params), compile_cdr_network(**params)


@pytest.fixture(scope="module")
def pair():
    return build_pair(tiny_params())


def network_phase_marginal(nc, grid):
    """Phase marginal of the network chain from its state labels.

    Label layout: (data_h, nw_h, nr_h, pd_state, counter_state, phase_idx).
    """
    eta = solve_direct(nc.chain.P).distribution
    marg = np.zeros(grid.n_points)
    for i, lab in enumerate(nc.chain.state_labels):
        marg[lab[-1]] += eta[i]
    return marg


class TestAgreement:
    def test_phase_marginals_identical(self, pair):
        params, model, nc = pair
        eta_model = solve_direct(model.chain.P).distribution
        pdf_model = model.phase_marginal(eta_model)
        pdf_net = network_phase_marginal(nc, params["grid"])
        np.testing.assert_allclose(pdf_net, pdf_model, atol=1e-9)

    def test_slip_rates_identical(self, pair):
        params, model, nc = pair
        eta_model = solve_direct(model.chain.P).distribution
        rate_model = stationary_event_rate(eta_model, model.slip_matrix)
        eta_net = solve_direct(nc.chain.P).distribution
        rate_net = stationary_event_rate(eta_net, nc.event_matrices["slip"])
        assert rate_net == pytest.approx(rate_model, rel=1e-8, abs=1e-12)

    def test_decision_error_rate_matches_discrete_ber(self, pair):
        from repro.core.measures import bit_error_rate_discrete

        params, model, nc = pair
        eta_model = solve_direct(model.chain.P).distribution
        ber_model = bit_error_rate_discrete(model, eta_model)
        eta_net = solve_direct(nc.chain.P).distribution
        ber_net = stationary_event_rate(
            eta_net, nc.event_matrices["decision-error"]
        )
        assert ber_net == pytest.approx(ber_model, rel=1e-8, abs=1e-12)

    def test_network_is_bigger_but_equivalent(self, pair):
        """The network carries the noise hidden states explicitly, so its
        state space strictly contains the vectorized model's information."""
        params, model, nc = pair
        assert nc.n_states > model.n_states


class TestAgreementMergedRows(TestAgreement):
    """The same agreement with the phase step G equal to one n_r step.

    Two detector decisions then reach the same (destination, shift) --
    e.g. a saturating LEAD with +1 drift and a LAG with no drift -- so
    the ``RollPlan`` materializes merged weight rows, the path every
    assembled matrix now goes through.
    """

    @pytest.fixture(scope="class")
    def pair(self):
        return build_pair(tiny_params(phase_step_units=1))

    def test_covers_merged_weight_rows(self, pair):
        params, _, _ = pair
        # Q holds a ones row and the three decision masses; anything
        # beyond those four is a merged row.
        assert CDRTransitionOperator(**params)._plan.q.shape[0] > 4


class TestNetworkStructure:
    def test_component_wiring(self):
        net = build_cdr_network(**tiny_params())
        assert net.source_names == ["data", "nw", "nr"]
        assert net.machine_names == ["pd", "counter", "phase"]

    def test_events_registered(self):
        net = build_cdr_network(**tiny_params())
        nc = net.compile()
        assert set(nc.event_matrices) == {"slip", "decision-error"}

    def test_simulation_runs(self):
        rng = np.random.default_rng(0)
        net = build_cdr_network(**tiny_params())
        envs = net.simulate(50, rng)
        assert len(envs) == 50
        assert all("phase" in e and "pd" in e for e in envs)
