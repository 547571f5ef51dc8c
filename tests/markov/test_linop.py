"""Tests for the TransitionOperator protocol layer and solver registry."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.markov import (
    AssembledOperator,
    MarkovChain,
    OperatorCapabilityError,
    TransitionOperator,
    as_operator,
    ensure_csr,
    get_solver,
    operator_residual,
    random_chain,
    register_solver,
    solver_names,
    solver_table,
    stationary_distribution,
)
from repro.markov.lumping import Partition, lumped_tpm
from repro.markov.solvers.direct import augmented_system
from repro.markov.solvers.result import iterate_fixed_point


def chain(n=24, seed=5):
    return random_chain(n, np.random.default_rng(seed), density=0.4)


class TestAssembledOperator:
    def test_wraps_chain_and_sparse_and_dense(self):
        mc = chain()
        for obj in (mc, mc.P, mc.P.toarray()):
            op = as_operator(obj)
            assert isinstance(op, AssembledOperator)
            assert op.shape == (mc.n_states, mc.n_states)

    def test_matvec_rmatvec(self):
        mc = chain()
        op = as_operator(mc)
        rng = np.random.default_rng(0)
        x = rng.random(mc.n_states)
        np.testing.assert_allclose(op.matvec(x), mc.P.dot(x), atol=1e-14)
        np.testing.assert_allclose(op.rmatvec(x), mc.P.T.dot(x), atol=1e-14)

    def test_diagonal_and_row_sums(self):
        mc = chain()
        op = as_operator(mc)
        np.testing.assert_allclose(op.diagonal(), mc.P.diagonal())
        np.testing.assert_allclose(op.row_sums(), 1.0, atol=1e-12)

    def test_to_csr_is_identity(self):
        mc = chain()
        op = as_operator(mc)
        assert op.to_csr() is mc.P

    def test_restrict_matches_lumped_tpm(self):
        mc = chain()
        part = Partition(np.arange(mc.n_states) // 3)
        w = np.random.default_rng(1).random(mc.n_states)
        C_op = lumped_tpm(as_operator(mc), part, weights=w)
        C_ref = lumped_tpm(mc.P, part, weights=w)
        np.testing.assert_array_equal(C_op.indptr, C_ref.indptr)
        np.testing.assert_array_equal(C_op.indices, C_ref.indices)
        np.testing.assert_array_equal(C_op.data, C_ref.data)

    def test_idempotent_wrapping(self):
        op = as_operator(chain())
        assert as_operator(op) is op

    def test_runtime_protocol_check(self):
        assert isinstance(as_operator(chain()), TransitionOperator)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_operator("not an operator")


class _MatvecOnly:
    """Minimal duck-typed operator without to_csr or triplets."""

    def __init__(self, P):
        self._P = P.tocsr()

    @property
    def shape(self):
        return self._P.shape

    def matvec(self, v):
        return self._P.dot(v)

    def rmatvec(self, x):
        return self._P.T.dot(x)

    def diagonal(self):
        return self._P.diagonal()

    def row_sums(self):
        return np.asarray(self._P.sum(axis=1)).ravel()


class TestEnsureCsr:
    def test_passthrough_paths(self):
        mc = chain()
        assert ensure_csr(mc) is mc.P
        assert sp.issparse(ensure_csr(mc.P.toarray()))

    def test_capability_error_without_to_csr(self):
        op = _MatvecOnly(chain().P)
        with pytest.raises(OperatorCapabilityError, match="matrix-free"):
            ensure_csr(op)

    def test_duck_typed_operator_accepted_as_is(self):
        op = _MatvecOnly(chain().P)
        assert as_operator(op) is op

    def test_matrix_free_solver_works_without_to_csr(self):
        mc = chain()
        res = stationary_distribution(_MatvecOnly(mc.P), method="power", tol=1e-11)
        ref = stationary_distribution(mc, method="direct")
        assert res.converged
        np.testing.assert_allclose(res.distribution, ref.distribution, atol=1e-8)

    def test_csr_solver_raises_cleanly_without_to_csr(self):
        with pytest.raises(OperatorCapabilityError):
            stationary_distribution(_MatvecOnly(chain().P), method="direct")

    def test_galerkin_coarsening_raises_cleanly_without_triplets(self):
        mc = chain()
        part = Partition(np.arange(mc.n_states) // 3)
        with pytest.raises(OperatorCapabilityError, match="triplets"):
            lumped_tpm(_MatvecOnly(mc.P), part)


class TestRegistry:
    def test_expected_solvers_registered(self):
        assert set(solver_names()) == {
            "arnoldi", "direct", "gauss-seidel", "jacobi",
            "krylov", "multigrid", "power", "sor",
        }

    def test_matrix_free_flags(self):
        flags = {e.name: e.matrix_free for e in solver_table()}
        assert flags["power"] and flags["jacobi"]
        assert flags["krylov"] and flags["multigrid"]
        assert not flags["direct"] and not flags["arnoldi"]
        assert not flags["gauss-seidel"] and not flags["sor"]

    def test_unknown_method_error(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_solver("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("power", matrix_free=True)(lambda *a, **k: None)

    def test_every_solver_dispatches_through_registry(self):
        mc = chain(n=30, seed=7)
        ref = stationary_distribution(mc, method="direct").distribution
        for entry in solver_table():
            res = entry.fn(
                as_operator(mc), tol=1e-11, max_iter=None, x0=None, monitor=None
            )
            assert res.converged, entry.name
            np.testing.assert_allclose(
                res.distribution, ref, atol=1e-7, err_msg=entry.name
            )

    def test_solver_names_alias_removed(self):
        # The deprecated SOLVER_NAMES tuple is gone; the registry is the
        # only source of truth for available solvers.
        import repro.markov as markov
        import repro.markov.stationary as stationary

        for module in (markov, stationary):
            with pytest.raises(AttributeError):
                module.SOLVER_NAMES
        assert len(solver_names()) == 8


class TestIterateFixedPoint:
    def test_driver_telemetry_is_uniform(self):
        from repro.markov.monitor import RecordingMonitor

        mc = chain()
        op = as_operator(mc)
        mon = RecordingMonitor()

        def step(x):
            y = op.rmatvec(x)
            return y / y.sum()

        res = iterate_fixed_point(
            mc.n_states, step, lambda x: operator_residual(op, x),
            method="power", tol=1e-11, max_iter=10_000, monitor=mon,
        )
        assert res.converged
        assert res.method == "power"
        assert res.iterations == len(mon.events)
        assert res.residual == pytest.approx(mon.events[-1].residual)
        assert res.residual_history[-1] < 1e-11

    def test_driver_reports_non_convergence(self):
        op = as_operator(chain())

        def step(x):
            y = op.rmatvec(x)
            return y / y.sum()

        res = iterate_fixed_point(
            op.shape[0], step, lambda x: operator_residual(op, x),
            method="power", tol=0.0, max_iter=3,
        )
        assert not res.converged
        assert res.iterations == 3


class TestAugmentedSystemSurgery:
    """The CSR row-splice must equal the old tolil row overwrite."""

    def _reference(self, P, row):
        n = P.shape[0]
        A = (sp.identity(n, format="csr") - P.T.tocsr()).tolil()
        A[row] = np.ones(n)
        return A.tocsc()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_tolil_reference(self, seed):
        P = chain(n=40, seed=seed).P
        ours = augmented_system(P)
        ref = self._reference(P, P.shape[0] - 1)
        assert (ours != ref).nnz == 0

    def test_structure(self):
        P = chain(n=17, seed=2).P
        A = augmented_system(P).tocsr()
        last = A[-1].toarray().ravel()
        np.testing.assert_allclose(last, 1.0)
        assert A.shape == P.shape

    def test_dense_last_row_even_when_sparse_before(self):
        # A chain whose (I - P^T) last row had few nonzeros: the splice
        # must still produce the full ones row without disturbing others.
        P = sp.identity(6, format="csr")
        A = augmented_system(P).tocsr()
        np.testing.assert_allclose(A[-1].toarray().ravel(), 1.0)
        np.testing.assert_allclose(
            A[:-1].toarray(), np.zeros((5, 6)), atol=1e-15
        )
