"""Tests for the matrix-free CDR transition operator."""

import numpy as np
import pytest

from repro.cdr import CDRTransitionOperator, PhaseGrid, build_cdr_chain
from repro.markov import solve_direct, stationary_distribution
from repro.noise import DiscreteDistribution, eye_opening_noise


def params(M=32, counter=3, g=2):
    grid = PhaseGrid(M)
    return dict(
        grid=grid,
        nw=eye_opening_noise(0.06, n_atoms=7),
        nr=DiscreteDistribution(
            [-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]
        ),
        counter_length=counter,
        phase_step_units=g,
        max_run_length=2,
    )


@pytest.fixture(scope="module")
def pair():
    p = params()
    return build_cdr_chain(**p), CDRTransitionOperator(**p)


def assert_csr_identical(A, B):
    """Bitwise equality of two CSR matrices: structure and values."""
    np.testing.assert_array_equal(A.indptr, B.indptr)
    np.testing.assert_array_equal(A.indices, B.indices)
    np.testing.assert_array_equal(A.data, B.data)


class TestAgainstAssembledMatrix:
    def test_shapes_match(self, pair):
        model, op = pair
        assert op.n == model.n_states
        assert op.shape == (model.n_states, model.n_states)

    def test_rmatvec_matches(self, pair):
        model, op = pair
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.random(op.n)
            np.testing.assert_array_equal(op.rmatvec(x), model.chain.P.T.dot(x))

    def test_matvec_matches(self, pair):
        model, op = pair
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.random(op.n)
            np.testing.assert_array_equal(op.matvec(v), model.chain.P.dot(v))

    def test_adjoint_identity(self, pair):
        _, op = pair
        rng = np.random.default_rng(2)
        x, v = rng.random(op.n), rng.random(op.n)
        # <P^T x, v> == <x, P v>
        assert np.dot(op.rmatvec(x), v) == pytest.approx(
            np.dot(x, op.matvec(v)), rel=1e-12
        )

    def test_preserves_probability_mass(self, pair):
        _, op = pair
        x = np.full(op.n, 1.0 / op.n)
        y = op.rmatvec(x)
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.min() >= -1e-15

    def test_row_stochasticity_via_matvec(self, pair):
        _, op = pair
        # P @ ones == ones
        np.testing.assert_allclose(op.matvec(np.ones(op.n)), 1.0, atol=1e-12)

    def test_linear_operator_view(self, pair):
        _, op = pair
        lo = op.as_linear_operator()
        x = np.random.default_rng(3).random(op.n)
        np.testing.assert_allclose(lo.rmatvec(x), op.rmatvec(x))

    @pytest.mark.parametrize("M,counter,g", [(16, 1, 1), (64, 4, 8), (32, 2, 4)])
    def test_matches_across_configurations(self, M, counter, g):
        p = params(M=M, counter=counter, g=g)
        model = build_cdr_chain(**p)
        op = CDRTransitionOperator(**p)
        assert_csr_identical(op.to_csr(), model.chain.P)
        assert_csr_identical(op.slip_matrix(), model.slip_matrix)
        rng = np.random.default_rng(M + counter)
        x = rng.random(op.n)
        np.testing.assert_array_equal(op.rmatvec(x), model.chain.P.T.dot(x))


class TestMatrixFreeStationary:
    def test_matches_direct_solve(self, pair):
        model, op = pair
        ref = solve_direct(model.chain.P).distribution
        res = stationary_distribution(op, method="power", tol=1e-11)
        assert res.converged
        assert res.method == "power"
        assert np.abs(res.distribution - ref).sum() < 1e-8

    def test_phase_marginal_matches(self, pair):
        model, op = pair
        res = stationary_distribution(op, method="power", tol=1e-11)
        np.testing.assert_allclose(
            op.phase_marginal(res.distribution),
            model.phase_marginal(res.distribution),
            atol=1e-14,
        )

    def test_large_model_runs_without_assembly(self):
        """A model size whose assembled matrix would be heavy builds and
        applies instantly matrix-free."""
        p = params(M=4096, counter=8, g=256)
        op = CDRTransitionOperator(**p)
        assert op.n == 2 * 15 * 4096
        x = np.full(op.n, 1.0 / op.n)
        y = op.rmatvec(x)
        assert y.sum() == pytest.approx(1.0, abs=1e-10)


class TestValidation:
    def test_bad_counter(self):
        p = params()
        p["counter_length"] = 0
        with pytest.raises(ValueError):
            CDRTransitionOperator(**p)

    def test_bad_step(self):
        p = params()
        p["phase_step_units"] = 0
        with pytest.raises(ValueError):
            CDRTransitionOperator(**p)

    def test_moves_exceed_grid(self):
        p = params(M=4, g=3)
        p["nr"] = DiscreteDistribution.delta(0.5)
        with pytest.raises(ValueError, match="exceed"):
            CDRTransitionOperator(**p)

    def test_vector_size_checked(self, pair):
        _, op = pair
        with pytest.raises(ValueError):
            op.rmatvec(np.ones(3))
        with pytest.raises(ValueError):
            op.matvec(np.ones(3))

    def test_repr(self, pair):
        _, op = pair
        assert "CDRTransitionOperator" in repr(op)
