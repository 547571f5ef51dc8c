"""Blocked (multi-vector) applies through the operator protocol."""

import numpy as np
import pytest

from repro.markov.linop import (
    AssembledOperator,
    as_operator,
    operator_matmat,
    operator_rmatmat,
)

pytestmark = [pytest.mark.operator]


def random_chain(n=30, seed=0):
    rng = np.random.default_rng(seed)
    P = rng.random((n, n))
    P /= P.sum(axis=1, keepdims=True)
    return AssembledOperator(__import__("scipy.sparse", fromlist=["x"]).csr_matrix(P))


class TestHelpers:
    def test_native_matmat_used(self):
        op = random_chain()
        X = np.random.default_rng(1).random((30, 3))
        assert np.allclose(operator_matmat(op, X), op.P.dot(X))
        assert np.allclose(operator_rmatmat(op, X), op.P.T.dot(X))

    def test_fallback_column_loop(self):
        class MatvecOnly:
            def __init__(self, op):
                self._op = op
                self.shape = op.shape

            def matvec(self, v):
                return self._op.matvec(v)

            def rmatvec(self, x):
                return self._op.rmatvec(x)

        inner = random_chain()
        op = MatvecOnly(inner)
        X = np.random.default_rng(2).random((30, 4))
        want = np.stack([inner.matvec(X[:, j]) for j in range(4)], axis=1)
        assert np.array_equal(operator_matmat(op, X), want)
        wantT = np.stack([inner.rmatvec(X[:, j]) for j in range(4)], axis=1)
        assert np.array_equal(operator_rmatmat(op, X), wantT)


class TestBlockedJacobi:
    def test_blocked_sweeps_match_columnwise(self):
        from repro.markov.solvers.jacobi import jacobi_split, jacobi_sweeps

        op = random_chain(seed=3)
        rng = np.random.default_rng(4)
        X = rng.random((30, 3))
        X /= X.sum(axis=0)
        split = jacobi_split(op)
        blocked = jacobi_sweeps(op, X.copy(), 4, split=split)
        for j in range(3):
            single = jacobi_sweeps(op, X[:, j].copy(), 4, split=split)
            assert np.allclose(blocked[:, j], single, atol=1e-14)

    def test_blocked_sweeps_matrix_free(self):
        from repro.cdr import CDRTransitionOperator, PhaseGrid
        from repro.markov.solvers.jacobi import jacobi_split, jacobi_sweeps
        from repro.noise import DiscreteDistribution, eye_opening_noise

        grid = PhaseGrid(32)
        op = CDRTransitionOperator(
            grid=grid,
            nw=eye_opening_noise(0.06, n_atoms=7),
            nr=DiscreteDistribution(
                [-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]
            ),
            counter_length=2,
            phase_step_units=2,
            max_run_length=2,
        )
        rng = np.random.default_rng(5)
        X = rng.random((op.n, 2))
        X /= X.sum(axis=0)
        split = jacobi_split(op)
        blocked = jacobi_sweeps(op, X.copy(), 3, split=split)
        for j in range(2):
            single = jacobi_sweeps(
                op, np.ascontiguousarray(X[:, j]), 3, split=split
            )
            assert np.allclose(blocked[:, j], single, atol=1e-14)


class TestKroneckerBlocked:
    def test_kron_matmat_matches_matvec(self):
        from repro.fsm.kronecker import kron_matmat, kron_matvec, synchronous_product

        rng = np.random.default_rng(6)
        P1 = rng.random((4, 4))
        P1 /= P1.sum(axis=1, keepdims=True)
        P2 = rng.random((5, 5))
        P2 /= P2.sum(axis=1, keepdims=True)
        desc = synchronous_product([P1, P2])
        mats = desc._terms[0][1]
        V = rng.random((20, 3))
        blocked = kron_matmat(mats, V)
        for j in range(3):
            assert np.allclose(blocked[:, j], kron_matvec(mats, V[:, j]))

    def test_descriptor_blocked_applies(self):
        from repro.fsm.kronecker import synchronous_product

        rng = np.random.default_rng(7)
        P1 = rng.random((3, 3))
        P1 /= P1.sum(axis=1, keepdims=True)
        P2 = rng.random((4, 4))
        P2 /= P2.sum(axis=1, keepdims=True)
        desc = synchronous_product([P1, P2])
        X = rng.random((12, 4))
        M = desc.to_sparse()
        assert np.allclose(desc.matmat(X), M @ X)
        assert np.allclose(desc.rmatmat(X), M.T @ X)


class TestInstrumentedOperatorCountsBlocked:
    def test_matmat_counted(self):
        from repro.obs import profile

        op = random_chain(seed=9)
        with profile.profiled() as session:
            wrapped = profile.instrument_operator(op, role="test")
            X = np.random.default_rng(10).random((30, 2))
            wrapped.matmat(X)
            wrapped.rmatmat(X)
        snap = session.snapshot()
        ops = snap["operators"]["test"]["ops"]
        assert ops["matmat"]["calls"] == 1
        assert ops["rmatmat"]["calls"] == 1
        assert "kernel_tier" in snap
