"""Kernel argument binding: plan arrays are bound once, never stale.

The compiled tier caches the raw buffer addresses of a plan's immutable
arrays on the plan's segment / CSR tables the first time they are
applied; only ``x`` and ``out`` are converted per call.  These tests pin
both halves of that contract: the cache is filled once per table (not
once per call), and a cached address can never outlive its arrays --
fresh plans of equal shape but different values, built and dropped in a
loop so the allocator reuses memory, still apply bit for bit like their
own CSR matrices.
"""

import copy
import gc
import pickle

import numpy as np
import pytest

from repro.kernels import available_tiers, use_tier

pytestmark = [pytest.mark.operator]

TIERS = available_tiers()
needs_cext = pytest.mark.skipif(
    "cext" not in TIERS, reason="compiled kernel tier unavailable"
)


def cdr_operator(nw_std: float):
    from repro.cdr import CDRTransitionOperator, PhaseGrid
    from repro.noise import DiscreteDistribution, eye_opening_noise

    grid = PhaseGrid(32)
    return CDRTransitionOperator(
        grid=grid,
        nw=eye_opening_noise(nw_std, n_atoms=7),
        nr=DiscreteDistribution([-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]),
        counter_length=3,
        phase_step_units=2,
        max_run_length=2,
    )


def branch_operator(seed: int, n: int = 300, branches: int = 4):
    from repro.scenarios.operator import BranchSumOperator

    rng = np.random.default_rng(seed)
    weights = rng.random((branches, n))
    weights /= weights.sum(axis=0)
    return BranchSumOperator(
        n, [(w, rng.integers(0, n, size=n)) for w in weights]
    )


def assert_applies_match_csr(op, rng):
    P = op.to_csr()
    PT = P.T.tocsr()
    x = rng.random(op.shape[0])
    assert np.array_equal(op.rmatvec(x), PT @ x)
    assert np.array_equal(op.matvec(x), P @ x)
    X = np.ascontiguousarray(rng.random((op.shape[0], 3)))
    assert np.array_equal(op.rmatmat(X), PT @ X)


@pytest.mark.parametrize("tier", TIERS)
class TestFreshPlansNeverStale:
    def test_roll_plans_of_equal_shape(self, tier):
        rng = np.random.default_rng(0)
        with use_tier(tier):
            for nw_std in np.linspace(0.04, 0.12, 6):
                op = cdr_operator(float(nw_std))
                assert_applies_match_csr(op, rng)
                del op
                gc.collect()

    def test_branch_plans_of_equal_shape(self, tier):
        rng = np.random.default_rng(1)
        with use_tier(tier):
            for seed in range(6):
                op = branch_operator(seed)
                assert_applies_match_csr(op, rng)
                del op
                gc.collect()


@needs_cext
class TestBindOncePerPlan:
    def count_binds(self, monkeypatch, name):
        from repro.kernels import cext_tier

        calls = []
        original = getattr(cext_tier, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cext_tier, name, counting)
        return calls

    def apply_many(self, op, times: int = 7):
        x = np.random.default_rng(2).random(op.shape[0])
        X = np.ascontiguousarray(np.stack([x, x], axis=1))
        for _ in range(times):
            op.rmatvec(x)
            op.matvec(x)
            op.rmatmat(X)
            op.matmat(X)

    def test_roll_plan_binds_each_direction_once(self, monkeypatch):
        calls = self.count_binds(monkeypatch, "_bind_roll")
        with use_tier("cext"):
            op = cdr_operator(0.06)
        self.apply_many(op)
        # one bind for the scatter table, one for the gather table
        assert len(calls) == 2
        self.apply_many(op)
        assert len(calls) == 2

    def test_branch_plan_binds_each_direction_once(self, monkeypatch):
        calls = self.count_binds(monkeypatch, "_bind_csr")
        with use_tier("cext"):
            op = branch_operator(3)
        self.apply_many(op)
        assert len(calls) == 2
        self.apply_many(op)
        assert len(calls) == 2

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copied_plans_rebind(self, clone):
        from repro.kernels import cext_tier

        with use_tier("cext"):
            op = cdr_operator(0.06)
        x = np.random.default_rng(4).random(op.shape[0])
        expected = op.rmatvec(x)
        plan = op._plan
        assert plan.scatter.c_args is not None
        twin = clone(plan)
        assert twin.scatter.c_args is None
        out = np.zeros_like(x)
        cext_tier.roll_apply(twin.q, twin.scatter, x, out)
        assert np.array_equal(out, expected)
