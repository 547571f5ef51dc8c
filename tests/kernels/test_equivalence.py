"""The kernel equivalence battery: every tier bit-identical to CSR.

The contract the kernel layer makes (and the CI ``kernels`` job runs
under forced cext and forced numpy): for every registered scenario and
every available tier, ``matvec`` / ``rmatvec`` are *bitwise* equal to
applying the operator's assembled CSR matrix (respectively its
transpose), blocked applies are bitwise equal to looped single-vector
applies, and matvec/rmatvec are adjoint.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_tiers, use_tier
from repro.markov.linop import as_operator, ensure_csr, unwrap_operator
from repro.scenarios.registry import scenario_names, scenario_table

pytestmark = [pytest.mark.operator]

TIERS = available_tiers()


def scenario_operators(tier):
    """(label, operator) for every scenario's matrix-free realization."""
    with use_tier(tier):
        for scenario in scenario_table():
            if "matrix-free" not in scenario.backends:
                continue
            model = scenario.build(
                scenario.params_for("fast"), backend="matrix-free"
            )
            yield scenario.name, as_operator(model.chain)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", scenario_names())
class TestScenarioBitIdentity:
    def test_applies_match_csr_bitwise(self, tier, name):
        ops = dict(scenario_operators(tier))
        if name not in ops:
            pytest.skip(f"scenario {name!r} has no matrix-free backend")
        op = ops[name]
        P = ensure_csr(unwrap_operator(op))
        PT = P.T.tocsr()
        rng = np.random.default_rng(42)
        for _ in range(3):
            x = rng.random(op.shape[0])
            assert np.array_equal(op.rmatvec(x), PT @ x)
            assert np.array_equal(op.matvec(x), P @ x)

    def test_blocked_matches_looped_bitwise(self, tier, name):
        ops = dict(scenario_operators(tier))
        if name not in ops:
            pytest.skip(f"scenario {name!r} has no matrix-free backend")
        op = ops[name]
        rng = np.random.default_rng(7)
        X = np.ascontiguousarray(rng.random((op.shape[0], 4)))
        R = op.rmatmat(X)
        V = op.matmat(X)
        for j in range(X.shape[1]):
            col = np.ascontiguousarray(X[:, j])
            assert np.array_equal(R[:, j], op.rmatvec(col))
            assert np.array_equal(V[:, j], op.matvec(col))


def cdr_operator(tier, M=48, counter=3):
    from repro.cdr import CDRTransitionOperator, PhaseGrid
    from repro.noise import DiscreteDistribution, eye_opening_noise

    grid = PhaseGrid(M)
    with use_tier(tier):
        return CDRTransitionOperator(
            grid=grid,
            nw=eye_opening_noise(0.06, n_atoms=7),
            nr=DiscreteDistribution(
                [-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]
            ),
            counter_length=counter,
            phase_step_units=2,
            max_run_length=2,
        )


@pytest.mark.parametrize("tier", TIERS)
class TestCDRBitIdentity:
    def test_applies_match_csr_bitwise(self, tier):
        op = cdr_operator(tier)
        assert op.kernel_tier == tier
        P = op.to_csr()
        PT = P.T.tocsr()
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.random(op.n)
            assert np.array_equal(op.rmatvec(x), PT @ x)
            assert np.array_equal(op.matvec(x), P @ x)

    def test_blocked_matches_looped_bitwise(self, tier):
        op = cdr_operator(tier)
        rng = np.random.default_rng(1)
        X = np.ascontiguousarray(rng.random((op.n, 5)))
        R = op.rmatmat(X)
        V = op.matmat(X)
        for j in range(X.shape[1]):
            col = np.ascontiguousarray(X[:, j])
            assert np.array_equal(R[:, j], op.rmatvec(col))
            assert np.array_equal(V[:, j], op.matvec(col))

    def test_saturating_counter_collisions(self, tier):
        # counter_length=1 makes distinct decisions collide on the same
        # (src, dst, shift): exercises the merged-dense-row path.
        op = cdr_operator(tier, M=32, counter=1)
        P = op.to_csr()
        PT = P.T.tocsr()
        x = np.random.default_rng(2).random(op.n)
        assert np.array_equal(op.rmatvec(x), PT @ x)
        assert np.array_equal(op.matvec(x), P @ x)

    def test_tiers_mutually_bit_identical(self, tier):
        base = cdr_operator(TIERS[0])
        other = cdr_operator(tier)
        x = np.random.default_rng(3).random(base.n)
        assert np.array_equal(base.rmatvec(x), other.rmatvec(x))
        assert np.array_equal(base.matvec(x), other.matvec(x))


class TestAdjointProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=25)
    def test_matvec_rmatvec_adjoint(self, seed, scale):
        op = cdr_operator(TIERS[0], M=24, counter=2)
        rng = np.random.default_rng(seed)
        v = scale * rng.standard_normal(op.n)
        x = rng.standard_normal(op.n)
        lhs = float(np.dot(op.matvec(v), x))
        rhs = float(np.dot(v, op.rmatvec(x)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15)
    def test_branch_operator_adjoint(self, seed):
        from repro.scenarios.operator import BranchSumOperator

        rng = np.random.default_rng(seed)
        n = 40
        raw = rng.uniform(0.05, 1.0, (3, n))
        raw /= raw.sum(axis=0, keepdims=True)
        op = BranchSumOperator(
            n, [(raw[b], rng.integers(0, n, n)) for b in range(3)]
        )
        v = rng.standard_normal(n)
        x = rng.standard_normal(n)
        assert float(np.dot(op.matvec(v), x)) == pytest.approx(
            float(np.dot(v, op.rmatvec(x))), rel=1e-12, abs=1e-12
        )


class TestStochasticity:
    @pytest.mark.parametrize("tier", TIERS)
    def test_row_stochastic_via_actual_matvec(self, tier):
        op = cdr_operator(tier)
        assert op.stochasticity_defect() < 1e-12
        # row_sums answers from structure (cached ones), the defect from
        # an actual kernel apply; both must tell the same story.
        assert np.all(op.row_sums() == 1.0)
