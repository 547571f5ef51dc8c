"""Kernel tier registry: selection, forcing, failure modes."""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import (
    KERNEL_ENV,
    KERNEL_TIERS,
    active_tier,
    available_tiers,
    get_kernel,
    tier_availability,
    use_tier,
)

pytestmark = [pytest.mark.operator]


class TestRegistry:
    def test_numpy_tier_always_available(self):
        assert "numpy" in available_tiers()

    def test_availability_reasons(self):
        avail = tier_availability()
        assert set(avail) == set(KERNEL_TIERS)
        assert avail["numpy"] is None
        for tier in KERNEL_TIERS:
            if tier in available_tiers():
                assert avail[tier] is None
            else:
                assert isinstance(avail[tier], str) and avail[tier]

    def test_auto_prefers_compiled_tiers(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "auto")
        assert get_kernel().name == available_tiers()[0]

    def test_unknown_tier_raises(self):
        assert KERNEL_TIERS == ("cext", "numpy")
        for name in ("turbo", "numba"):
            with pytest.raises(RuntimeError, match="unknown kernel tier"):
                get_kernel(name)

    def test_forced_unavailable_tier_raises(self, monkeypatch):
        # Simulate a machine without a C compiler: forcing cext must raise,
        # while auto falls through to numpy.
        monkeypatch.setitem(kernels._probed, "cext", None)
        with pytest.raises(RuntimeError, match="unavailable"):
            get_kernel("cext")
        assert get_kernel("auto").name == "numpy"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert get_kernel().name == "numpy"
        monkeypatch.setenv(KERNEL_ENV, "auto")
        assert get_kernel().name == available_tiers()[0]
        monkeypatch.setenv(KERNEL_ENV, "no-such-tier")
        with pytest.raises(RuntimeError, match="unknown kernel tier"):
            get_kernel()

    def test_use_tier_overrides_and_restores(self):
        before = active_tier()
        with use_tier("numpy") as kernel:
            assert kernel.name == "numpy"
            assert active_tier() == "numpy"
        assert active_tier() == before

    def test_operators_bind_overridden_tier(self):
        from repro.scenarios.operator import BranchSumOperator

        n = 6
        terms = [(np.full(n, 1.0), np.arange(n))]
        with use_tier("numpy"):
            op = BranchSumOperator(n, terms)
        assert op.kernel_tier == "numpy"

    def test_module_exports_plans(self):
        assert kernels.RollPlan is not None
        assert kernels.BranchPlan is not None


class TestApplyValidators:
    def test_vector_shape_error(self):
        from repro.kernels import as_apply_vector

        with pytest.raises(ValueError, match=r"vector must have shape \(5,\)"):
            as_apply_vector(np.ones(4), 5)

    def test_block_shape_error(self):
        from repro.kernels import as_apply_block

        with pytest.raises(ValueError, match=r"block must have shape \(5, k\)"):
            as_apply_block(np.ones((4, 2)), 5)
