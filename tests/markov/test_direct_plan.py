"""The direct stationary solve and its symbolic/numeric split.

* Accuracy against an independent oracle: a dense GTH elimination
  (Grassmann-Taksar-Heyman, subtraction-free, so accurate componentwise
  in the deep tail) and the analytic solution of a steep birth-death
  chain.  Both reach probabilities far below the round-off of a
  pivoted LU on the augmented system.
* Plan invariants: a reused plan equals a fresh one bit for bit, another
  pattern is rejected, multigrid plans its coarsest level once per
  solve, and the numeric phase makes no row interchanges.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.analyzer import analyze_cdr
from repro.core.measures import bit_error_rate
from repro.core.spec import CDRSpec
from repro.markov import (
    DirectPlan,
    GalerkinPlan,
    Partition,
    multigrid,
    solve_direct,
)


def gth(P) -> np.ndarray:
    """Stationary vector by dense GTH elimination (test oracle only)."""
    A = np.array(P.toarray() if sp.issparse(P) else P, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        # Censor state k: its diagonal is the sum of its off-diagonal
        # row entries into the remaining states, never a subtraction.
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def ext_op_spec(M: int, nw_std: float = 0.05) -> CDRSpec:
    return CDRSpec(
        n_phase_points=M, n_clock_phases=16, counter_length=8,
        max_run_length=2, nw_std=nw_std, nw_atoms=9,
    )


def birth_death(n: int, up: float, down: float) -> sp.csr_matrix:
    P = sp.diags(
        [np.full(n - 1, down), np.full(n, 1.0 - up - down), np.full(n - 1, up)],
        [-1, 0, 1], format="lil",
    )
    P[0, 0] = 1.0 - up
    P[n - 1, n - 1] = 1.0 - down
    return P.tocsr()


@pytest.fixture(scope="module")
def ext_op_m128():
    """One M=128 multigrid solve (3,840 states) with its coarsest plans."""
    built, solved = [], []

    class Recording(DirectPlan):
        def __init__(self, P, weights=None):
            super().__init__(P, weights)
            built.append(self)

        def solve(self, P):
            solved.append(P)
            return super().solve(P)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multigrid, "DirectPlan", Recording)
        analysis = analyze_cdr(ext_op_spec(128), solver="multigrid", tol=1e-10)
    return analysis, built, solved


class TestAccuracy:
    def test_ext_op_chain_matches_gth(self):
        analysis = analyze_cdr(ext_op_spec(32), solver="direct")
        P = analysis.model.chain.P
        assert P.shape[0] <= 1000
        ref = gth(P)
        x = analysis.solver_result.distribution
        big = ref > 1e-250
        np.testing.assert_allclose(x[big], ref[big], rtol=1e-10, atol=0.0)
        ber = bit_error_rate(analysis.model, ref)
        assert ber < 1e-6
        assert analysis.ber == pytest.approx(ber, rel=1e-12, abs=0.0)

    def test_steep_birth_death_matches_analytic(self):
        # pi_k proportional to (1/9)^k spans 300 decades; the state
        # carrying the mass must be the one normalized.
        n = 400
        x = solve_direct(birth_death(n, up=0.1, down=0.9)).distribution
        exact = (8.0 / 9.0) * (1.0 / 9.0) ** np.arange(n)
        big = exact > 1e-300
        assert big.sum() > 300
        np.testing.assert_allclose(x[big], exact[big], rtol=1e-10, atol=0.0)

    def test_multigrid_matches_direct_in_the_tail(self, ext_op_m128):
        analysis, _, _ = ext_op_m128
        direct = analyze_cdr(ext_op_spec(128), solver="direct")
        assert direct.ber < 1e-13
        assert analysis.solver_result.iterations == 10
        assert analysis.ber == pytest.approx(direct.ber, rel=1e-5, abs=0.0)


class TestPlan:
    @staticmethod
    def _same_pattern_pair():
        P = birth_death(64, up=0.2, down=0.5)
        rng = np.random.default_rng(7)
        plan = GalerkinPlan(P, Partition.pairs(64))
        return (
            plan.coarse(P, rng.random(64) + 0.1),
            plan.coarse(P, rng.random(64) + 0.1),
        )

    def test_reused_plan_is_bitwise_fresh(self):
        C1, C2 = self._same_pattern_pair()
        assert not np.array_equal(C1.data, C2.data)
        # Mass drifts to block 0, so weights near the stationary vector
        # pick it in both plans: the same normalization state.
        w = 0.5 ** np.arange(C1.shape[0])
        reused = DirectPlan(C1, weights=w)
        reused.solve(C1)
        fresh = DirectPlan(C2, weights=w)
        assert fresh.state == reused.state == 0
        np.testing.assert_array_equal(fresh.perm, reused.perm)
        np.testing.assert_array_equal(reused.solve(C2), fresh.solve(C2))

    def test_other_pattern_rejected(self):
        C1, _ = self._same_pattern_pair()
        plan = DirectPlan(C1)
        other = birth_death(C1.shape[0], up=0.3, down=0.4).tolil()
        other[0, 2] = 0.1
        other[0, 0] -= 0.1
        other = other.tocsr()
        with pytest.raises(ValueError, match="pattern"):
            plan.solve(other)
        with pytest.raises(ValueError, match="pattern"):
            plan.solve(birth_death(C1.shape[0] + 1, up=0.3, down=0.4))

    def test_transient_hub_is_not_normalized(self):
        # State 5 is entered most but is transient; normalizing it would
        # leave the absorbing state's zero column in B.
        P = np.zeros((7, 7))
        P[:5, 5] = 1.0
        P[5, 6] = P[6, 6] = 1.0
        plan = DirectPlan(sp.csr_matrix(P))
        assert plan.state == 6
        np.testing.assert_array_equal(plan.solve(sp.csr_matrix(P)), np.eye(7)[6])

    def test_multigrid_plans_coarsest_once_per_solve(self, ext_op_m128):
        analysis, built, solved = ext_op_m128
        assert analysis.solver_result.iterations >= 9
        assert len(built) == 1
        assert len(solved) == analysis.solver_result.iterations

    def test_ext_op_fill(self):
        # The minimum-degree order of B + B^T: 0.79M L+U entries on this
        # 7,680-state chain, where a COLAMD order leaves 1.14M.
        P = ext_op_spec(256).build_model().chain.P
        lu = DirectPlan(P).factor(P)
        assert lu.L.nnz + lu.U.nnz < 900_000

    def test_no_row_interchanges_on_cdr_coarsest(self, ext_op_m128):
        _, built, solved = ext_op_m128
        C = solved[-1]
        lu = built[0].factor(C)
        n = C.shape[0]
        assert n > 100
        np.testing.assert_array_equal(lu.perm_r, np.arange(n))
        np.testing.assert_array_equal(lu.perm_c, np.arange(n))
