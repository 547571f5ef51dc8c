"""Hot-path regression tests: zero-copy applies and cached structural queries.

The bugfix sweep of ROADMAP item 1: ``np.asarray(..., dtype=float)`` on
every apply used to copy caller buffers inside solver loops, ``row_sums``
ran a full matvec per call and ``diagonal`` rebuilt its scratch array per
call.  These tests pin the fixed behavior.
"""

import tracemalloc

import numpy as np
import pytest

from repro.kernels import as_apply_block, as_apply_vector

pytestmark = [pytest.mark.operator]


def small_cdr_operator():
    from repro.cdr import CDRTransitionOperator, PhaseGrid
    from repro.noise import DiscreteDistribution, eye_opening_noise

    grid = PhaseGrid(32)
    return CDRTransitionOperator(
        grid=grid,
        nw=eye_opening_noise(0.06, n_atoms=7),
        nr=DiscreteDistribution([-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]),
        counter_length=3,
        phase_step_units=2,
        max_run_length=2,
    )


class TestZeroCopyValidators:
    def test_float64_contiguous_vector_passes_through(self):
        x = np.random.default_rng(0).random(100)
        out = as_apply_vector(x, 100)
        assert out is x
        assert np.shares_memory(out, x)

    def test_float64_contiguous_block_passes_through(self):
        X = np.ascontiguousarray(np.random.default_rng(1).random((50, 4)))
        out = as_apply_block(X, 50)
        assert out is X
        assert np.shares_memory(out, X)

    def test_other_dtypes_converted_once(self):
        x32 = np.ones(10, dtype=np.float32)
        out = as_apply_vector(x32, 10)
        assert out.dtype == np.float64
        assert not np.shares_memory(out, x32)

    def test_fortran_order_block_converted(self):
        X = np.asfortranarray(np.random.default_rng(2).random((20, 3)))
        out = as_apply_block(X, 20)
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, X)

    def test_lists_accepted(self):
        out = as_apply_vector([1.0, 2.0, 3.0], 3)
        assert out.dtype == np.float64

    def test_apply_does_not_copy_input(self):
        # The end-to-end regression: an aligned caller buffer flows into
        # the kernel without an intermediate allocation of its own size.
        op = small_cdr_operator()
        x = np.random.default_rng(3).random(op.n)
        op.rmatvec(x)  # warm caches / lazy imports
        vec_bytes = x.nbytes
        tracemalloc.start()
        op.rmatvec(x)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        allocs = sum(s.size for s in snapshot.statistics("lineno"))
        # One output vector (plus small bookkeeping), NOT two+ vectors:
        # the old np.asarray copy would add another vec_bytes here.
        assert allocs < 1.8 * vec_bytes


class TestCachedStructuralQueries:
    def test_cdr_row_sums_cached_and_readonly(self):
        op = small_cdr_operator()
        r1 = op.row_sums()
        r2 = op.row_sums()
        assert r1 is r2
        assert not r1.flags.writeable
        assert np.all(r1 == 1.0)
        with pytest.raises((ValueError, RuntimeError)):
            r1[0] = 2.0

    def test_cdr_diagonal_cached_and_readonly(self):
        op = small_cdr_operator()
        d1 = op.diagonal()
        assert d1 is op.diagonal()
        assert not d1.flags.writeable
        assert np.allclose(d1, op.to_csr().diagonal(), atol=1e-15)

    def test_row_sums_no_longer_runs_matvec(self):
        # row_sums answers structurally; the numerical check moved to
        # stochasticity_defect.  Count kernel applies to prove it.
        op = small_cdr_operator()
        calls = {"n": 0}
        original = op._kernel.roll_apply

        class CountingKernel:
            name = op._kernel.name

            @staticmethod
            def roll_apply(*args, **kwargs):
                calls["n"] += 1
                return original(*args, **kwargs)

        op._kernel = CountingKernel
        op.row_sums()
        op.row_sums()
        assert calls["n"] == 0
        assert op.stochasticity_defect() < 1e-12
        assert calls["n"] == 1

    def test_branch_row_sums_and_diagonal_cached(self):
        from repro.scenarios.operator import BranchSumOperator

        n = 12
        op = BranchSumOperator(n, [(np.full(n, 1.0), np.arange(n))])
        assert op.row_sums() is op.row_sums()
        assert not op.row_sums().flags.writeable
        assert op.diagonal() is op.diagonal()
        assert not op.diagonal().flags.writeable

    def test_kronecker_descriptor_transposes_cached(self):
        from repro.fsm.kronecker import synchronous_product

        rng = np.random.default_rng(4)
        P1 = rng.random((4, 4))
        P1 /= P1.sum(axis=1, keepdims=True)
        P2 = rng.random((3, 3))
        P2 /= P2.sum(axis=1, keepdims=True)
        desc = synchronous_product([P1, P2])
        x = rng.random(12)
        desc.rmatvec(x)
        cached = desc._termsT
        assert cached is not None
        desc.rmatvec(x)
        assert desc._termsT is cached  # reused, not rebuilt
        desc.add_term([P1, P2], coefficient=0.0)
        assert desc._termsT is None  # invalidated by structural change
