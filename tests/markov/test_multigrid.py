"""Tests for aggregation/disaggregation (S6) and multigrid (S7)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.markov import (
    MarkovChain,
    MultigridOptions,
    MultigridSolver,
    Partition,
    disaggregate,
    pairing_hierarchy,
    pairwise_strength_partition,
    solve_aggregation_disaggregation,
    solve_direct,
    solve_multigrid,
)

from .conftest import random_chains


def big_birth_death(n=3000, up=0.3, down=0.4):
    rows, cols, vals = [], [], []
    for i in range(n):
        u = up if i < n - 1 else 0.0
        d = down if i > 0 else 0.0
        for j, p in ((i - 1, d), (i, 1.0 - u - d), (i + 1, u)):
            if p > 0:
                rows.append(i)
                cols.append(j)
                vals.append(p)
    return MarkovChain(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


class TestDisaggregate:
    def test_block_masses_match_coarse(self):
        x = np.array([0.1, 0.1, 0.4, 0.4])
        part = Partition([0, 0, 1, 1])
        out = disaggregate(x, np.array([0.5, 0.5]), part)
        assert out[:2].sum() == pytest.approx(0.5)
        assert out[2:].sum() == pytest.approx(0.5)

    def test_preserves_intra_block_shape(self):
        x = np.array([0.2, 0.6, 0.1, 0.1])
        part = Partition([0, 0, 1, 1])
        out = disaggregate(x, np.array([0.4, 0.6]), part)
        assert out[1] / out[0] == pytest.approx(3.0)

    def test_zero_block_survives(self):
        x = np.array([0.0, 0.0, 0.5, 0.5])
        part = Partition([0, 0, 1, 1])
        out = disaggregate(x, np.array([0.0, 1.0]), part)
        assert out.sum() == pytest.approx(1.0)


class TestAggregationDisaggregation:
    def test_converges_on_birth_death(self, birth_death_chain):
        part = Partition.pairs(birth_death_chain.n_states)
        res = solve_aggregation_disaggregation(birth_death_chain.P, part, tol=1e-11)
        ref = solve_direct(birth_death_chain.P).distribution
        assert res.converged
        assert np.abs(res.distribution - ref).sum() < 1e-8

    def test_beats_plain_jacobi_in_iterations(self):
        from repro.markov import solve_jacobi

        chain = big_birth_death(400)
        part = Partition.pairs(chain.n_states)
        ad = solve_aggregation_disaggregation(chain.P, part, tol=1e-9, max_iter=2000)
        j = solve_jacobi(chain.P, tol=1e-9, max_iter=200_000)
        assert ad.converged
        assert ad.iterations < j.iterations

    def test_size_mismatch(self, two_state_chain):
        with pytest.raises(ValueError, match="partition size"):
            solve_aggregation_disaggregation(two_state_chain.P, Partition([0, 0, 1]))

    @given(random_chains(min_states=6, max_states=30))
    @settings(max_examples=15, deadline=None)
    def test_matches_direct_on_random_chains(self, chain):
        part = Partition.pairs(chain.n_states)
        res = solve_aggregation_disaggregation(chain.P, part, tol=1e-11, max_iter=500)
        ref = solve_direct(chain.P).distribution
        assert np.abs(res.distribution - ref).sum() < 1e-7


class TestCoarseningStrategies:
    def test_pairwise_strength_halves(self, birth_death_chain):
        part = pairwise_strength_partition(birth_death_chain.P)
        assert part.n_blocks <= (birth_death_chain.n_states + 1) // 2 + 1
        assert part.n_blocks >= birth_death_chain.n_states // 2

    def test_pairwise_strength_pairs_neighbours(self, birth_death_chain):
        part = pairwise_strength_partition(birth_death_chain.P)
        # In a birth-death chain the strongest coupling is to a grid
        # neighbour, so each non-singleton block spans adjacent indices.
        for b in range(part.n_blocks):
            members = part.members(b)
            if members.size == 2:
                assert abs(members[1] - members[0]) == 1

    def test_pairing_hierarchy_strategy(self):
        parts = [Partition.pairs(8), Partition.pairs(4)]
        strat = pairing_hierarchy(parts)
        P8 = sp.identity(8, format="csr")
        assert strat(0, P8).n_blocks == 4
        assert strat(2, P8) is None
        with pytest.raises(ValueError, match="level 1"):
            strat(1, P8)  # wrong size at level 1


class TestMultigridOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultigridOptions(tol=0.0)
        with pytest.raises(ValueError):
            MultigridOptions(max_cycles=0)
        with pytest.raises(ValueError):
            MultigridOptions(nu_pre=-1)
        with pytest.raises(ValueError):
            MultigridOptions(nu_pre=0, nu_post=0)
        with pytest.raises(ValueError):
            MultigridOptions(coarsest_size=0)
        with pytest.raises(ValueError):
            MultigridOptions(max_levels=0)


class TestMultigrid:
    def test_small_chain_direct_fallback(self, two_state_chain):
        res = solve_multigrid(two_state_chain)
        np.testing.assert_allclose(res.distribution, [0.6, 0.4], atol=1e-9)

    def test_large_birth_death(self):
        chain = big_birth_death(3000)
        res = solve_multigrid(chain, tol=1e-10, coarsest_size=64)
        ref = solve_direct(chain.P).distribution
        assert res.converged
        assert np.abs(res.distribution - ref).sum() < 1e-7

    def test_accepts_markov_chain_and_matrix(self, birth_death_chain):
        r1 = solve_multigrid(birth_death_chain, coarsest_size=8)
        r2 = solve_multigrid(birth_death_chain.P, coarsest_size=8)
        np.testing.assert_allclose(r1.distribution, r2.distribution, atol=1e-9)

    def test_uses_multiple_levels(self):
        chain = big_birth_death(2000)
        solver = MultigridSolver(options=MultigridOptions(coarsest_size=32, tol=1e-9))
        res = solver.solve(chain.P)
        assert res.converged
        assert solver.levels_used >= 4

    def test_cycle_count_flat_with_size(self):
        """The headline multigrid property: V-cycle count stays roughly
        constant as the problem grows (here: factor-of-8 growth)."""
        small = big_birth_death(500)
        large = big_birth_death(4000)
        rs = solve_multigrid(small, tol=1e-9, coarsest_size=32)
        rl = solve_multigrid(large, tol=1e-9, coarsest_size=32)
        assert rs.converged and rl.converged
        assert rl.iterations <= max(3 * rs.iterations, rs.iterations + 5)

    def test_structured_hierarchy(self):
        n = 512
        chain = big_birth_death(n)
        parts = []
        size = n
        while size > 32:
            parts.append(Partition.pairs(size))
            size = (size + 1) // 2
        res = solve_multigrid(
            chain, strategy=pairing_hierarchy(parts), tol=1e-10, coarsest_size=32
        )
        ref = solve_direct(chain.P).distribution
        assert res.converged
        assert np.abs(res.distribution - ref).sum() < 1e-7

    def test_strategy_decline_falls_back(self, birth_death_chain):
        res = solve_multigrid(
            birth_death_chain, strategy=lambda lvl, P: None, coarsest_size=8
        )
        # strategy refuses to coarsen; solver still produces the answer
        ref = solve_direct(birth_death_chain.P).distribution
        assert np.abs(res.distribution - ref).sum() < 1e-6

    def test_declined_level_times_its_direct_solve(self):
        # coarsest_size < n <= 8 * coarsest_size: a level the strategy
        # declines is solved directly, and that time is recorded.
        from repro.obs.profile import profiled

        chain = big_birth_death(64)
        with profiled(metrics=False) as session:
            res = solve_multigrid(
                chain, strategy=lambda level, P: None, coarsest_size=16
            )
        events = res.recording.vcycle_events
        assert [e.cycle for e in events] == list(range(1, res.iterations + 1))
        for e in events:
            assert e.level == 0 and e.n_blocks == 0
            assert e.coarsest_solve_time > 0.0
        cell = session.operators["multigrid.L0"]["coarsest_solve"]
        assert cell[1] == sum(e.coarsest_solve_time for e in events)

    def test_levels_used_describes_the_latest_solve(self):
        solver = MultigridSolver(
            options=MultigridOptions(coarsest_size=32, tol=1e-9)
        )
        solver.solve(big_birth_death(2000).P)
        deep = solver.levels_used
        solver.solve(big_birth_death(20).P)
        assert deep >= 4
        assert solver.levels_used == 1

    @given(random_chains(min_states=5, max_states=40))
    @settings(max_examples=15, deadline=None)
    def test_matches_direct_on_random_chains(self, chain):
        res = solve_multigrid(chain, tol=1e-11, coarsest_size=4, max_cycles=300)
        ref = solve_direct(chain.P).distribution
        assert np.abs(res.distribution - ref).sum() < 1e-6

    def test_result_metadata(self, birth_death_chain):
        res = solve_multigrid(birth_death_chain, coarsest_size=8)
        assert res.method == "multigrid"
        assert res.solve_time >= 0.0
        assert len(res.residual_history) == res.iterations
