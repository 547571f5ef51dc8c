"""Solve-context layer: structural digests, hierarchy cache, AMG Krylov.

The tentpole claim under test is the construction/use split: hierarchy
*construction* (partitions) is keyed by a structural digest and cached in
a :class:`SolveContext`, while hierarchy *use* (iterate-weighted coarse
operators, warm starts) stays per-solve.  These tests pin down

* digest semantics -- noise-only spec variants share a digest, structural
  changes do not, and a chain digests identically to its operator wrapper;
* cache and warm-start counters on :class:`SolveContext`;
* ``preconditioner="amg"`` on all three TPM backends, including an
  operator stripped of ``to_csr`` (fully matrix-free);
* the typed error for ``preconditioner="ilu"`` on matrix-free operators;
* coarsening edge cases (singleton partitions, the ``coarsest_size``
  boundary) and the Galerkin row-sum-preservation property of
  ``lumped_tpm`` over the three backends' ``triplets()``;
* ``GalerkinPlan``: one plan reused across weightings matches the
  definition of the coarse operator, its Jacobi split applies bit for bit
  like ``jacobi_split``, and a matrix-free multigrid solve reads the fine
  operator's ``triplets()`` once.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import CDRTransitionOperator, PhaseGrid, build_cdr_chain
from repro.core.spec import CDRSpec
from repro.fsm import KroneckerDescriptor, synchronous_product
from repro.markov import (
    AMGPreconditioner,
    GalerkinPlan,
    MarkovChain,
    Partition,
    SolveContext,
    build_hierarchy,
    lumped_tpm,
    random_chain,
    solve_direct,
    solve_multigrid,
    stationary_distribution,
    strength_of_connection_partition,
    structural_digest,
)
from repro.markov.conformance import (
    bangbang_frequency_fixture,
    birth_death_fixture,
    mesochronous_fixture,
    nearly_uncoupled_fixture,
)
from repro.markov.linop import OperatorCapabilityError, as_operator
from repro.markov.lumping import entries_csr
from repro.markov.registry import get_backend
from repro.markov.solvers.jacobi import jacobi_split
from repro.noise import DiscreteDistribution, eye_opening_noise
from repro.obs.profile import instrument_operator, profiled
from repro.scenarios.bangbang import build_bangbang_operator
from repro.scenarios.registry import get_scenario


def cdr_params(M=32, counter=3, nw_std=0.06):
    grid = PhaseGrid(M)
    return dict(
        grid=grid,
        nw=eye_opening_noise(nw_std, n_atoms=7),
        nr=DiscreteDistribution(
            [-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]
        ),
        counter_length=counter,
        phase_step_units=2,
        max_run_length=2,
    )


class StrippedOperator:
    """A genuinely matrix-free view: protocol + triplets, no ``to_csr``."""

    def __init__(self, op):
        self._op = op

    @property
    def shape(self):
        return self._op.shape

    def matvec(self, v):
        return self._op.matvec(v)

    def rmatvec(self, x):
        return self._op.rmatvec(x)

    def diagonal(self):
        return self._op.diagonal()

    def row_sums(self):
        return self._op.row_sums()

    def triplets(self):
        return self._op.triplets()

    def structure_token(self):
        return self._op.structure_token()

    def multigrid_strategy(self):
        return self._op.multigrid_strategy()


# --------------------------------------------------------------------- #
# structural digests
# --------------------------------------------------------------------- #

class TestStructuralDigest:
    def test_chain_digests_like_its_operator_wrapper(self):
        model = build_cdr_chain(**cdr_params())
        assert structural_digest(model.chain) == structural_digest(
            as_operator(model.chain)
        )

    def test_noise_only_variants_share_a_digest(self):
        # Different noise stds change probabilities (and can change the
        # assembled sparsity pattern when near-zero atoms drop out) but
        # not the structure the hierarchy depends on.
        a = build_cdr_chain(**cdr_params(nw_std=0.03))
        b = build_cdr_chain(**cdr_params(nw_std=0.09))
        assert structural_digest(a.chain) == structural_digest(b.chain)

    def test_structural_change_changes_the_digest(self):
        a = build_cdr_chain(**cdr_params(counter=2))
        b = build_cdr_chain(**cdr_params(counter=3))
        assert structural_digest(a.chain) != structural_digest(b.chain)

    def test_matrix_free_operator_tokens(self):
        a = CDRTransitionOperator(**cdr_params(nw_std=0.03))
        b = CDRTransitionOperator(**cdr_params(nw_std=0.09))
        c = CDRTransitionOperator(**cdr_params(M=64))
        assert structural_digest(a) == structural_digest(b)
        assert structural_digest(a) != structural_digest(c)

    @pytest.mark.parametrize("backend", ["assembled", "matrix-free"])
    def test_cdr_token_is_short_and_stable(self, backend):
        # Every hierarchy_for / warm_start_for call digests the token, so
        # it must not grow with the term list (about 580 terms here).
        spec = CDRSpec(
            n_phase_points=512, n_clock_phases=16, counter_length=8,
            max_run_length=2, nw_std=0.1, nw_atoms=9,
        )
        chain = get_backend(backend).build(spec).chain
        token = chain.structure_token()
        assert len(repr(token)) < 200
        assert chain.structure_token() == token

    def test_plain_matrices_digest_by_sparsity_pattern(self):
        P1 = sp.csr_matrix(np.array([[0.5, 0.5], [0.25, 0.75]]))
        P2 = sp.csr_matrix(np.array([[0.9, 0.1], [0.6, 0.4]]))
        P3 = sp.csr_matrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert structural_digest(P1) == structural_digest(P2)
        assert structural_digest(P1) != structural_digest(P3)


# --------------------------------------------------------------------- #
# the SolveContext cache
# --------------------------------------------------------------------- #

class TestSolveContext:
    def test_second_lookup_is_a_hit(self):
        chain = birth_death_fixture(64)
        ctx = SolveContext(coarsest_size=16)
        h1 = ctx.hierarchy_for(chain)
        h2 = ctx.hierarchy_for(chain)
        assert h1 is h2
        stats = ctx.stats()
        assert stats["hierarchy_hits"] == 1
        assert stats["hierarchy_misses"] == 1
        assert stats["cached_structures"] == 1
        assert stats["hierarchy_build_seconds"] > 0.0

    def test_noise_variants_share_one_hierarchy(self):
        a = build_cdr_chain(**cdr_params(nw_std=0.03))
        b = build_cdr_chain(**cdr_params(nw_std=0.09))
        ctx = SolveContext(coarsest_size=16)
        assert ctx.hierarchy_for(a.chain) is ctx.hierarchy_for(b.chain)
        assert ctx.stats()["cached_structures"] == 1

    def test_warm_start_store_roundtrip(self):
        chain = birth_death_fixture(64)
        ctx = SolveContext()
        assert ctx.warm_start_for(chain) is None
        pi = solve_direct(chain).distribution
        ctx.record_solution(chain, pi)
        warm = ctx.warm_start_for(chain)
        np.testing.assert_allclose(warm, pi)
        assert ctx.stats()["warm_starts"] == 1

    def test_warm_start_disabled_context_still_caches(self):
        chain = birth_death_fixture(64)
        ctx = SolveContext(warm_start=False)
        ctx.record_solution(chain, solve_direct(chain).distribution)
        assert ctx.warm_start_for(chain) is None
        ctx.hierarchy_for(chain)
        assert ctx.stats()["hierarchy_misses"] == 1

    def test_context_solve_warm_starts_second_call(self):
        chain = birth_death_fixture(200)
        ctx = SolveContext(coarsest_size=32)
        first = ctx.solve(chain, method="krylov", tol=1e-10)
        second = ctx.solve(chain, method="krylov", tol=1e-10)
        assert first.converged and second.converged
        assert not first.warm_started
        assert second.warm_started
        assert second.iterations <= first.iterations
        np.testing.assert_allclose(
            second.distribution, first.distribution, atol=1e-8
        )


# --------------------------------------------------------------------- #
# AMG-preconditioned Krylov on every backend
# --------------------------------------------------------------------- #

def _kronecker_fixture() -> KroneckerDescriptor:
    rng = np.random.default_rng(7)
    return synchronous_product(
        [random_chain(6, rng).P, random_chain(8, rng).P]
    )


@pytest.mark.amg
class TestKrylovAMG:
    @pytest.mark.parametrize("backend", ["assembled", "matrix-free", "kronecker"])
    def test_amg_converges_on_all_backends(self, backend):
        if backend == "assembled":
            op = build_cdr_chain(**cdr_params()).chain
        elif backend == "matrix-free":
            op = CDRTransitionOperator(**cdr_params())
        else:
            op = _kronecker_fixture()
        hierarchy = build_hierarchy(op, strategy="algebraic", coarsest_size=16)
        result = stationary_distribution(
            op, method="krylov", preconditioner="amg",
            hierarchy=hierarchy, tol=1e-10,
        )
        assert result.converged
        assert "amg" in result.method
        reference = stationary_distribution(op, method="power", tol=1e-12)
        np.testing.assert_allclose(
            result.distribution, reference.distribution, atol=1e-7
        )

    def test_amg_works_without_to_csr(self):
        # Fully matrix-free: the operator cannot assemble itself at all,
        # so coarsening must come from structure (phase-pairing), and the
        # preconditioner's coarse levels from triplets().
        op = StrippedOperator(CDRTransitionOperator(**cdr_params()))
        hierarchy = build_hierarchy(op, strategy="auto", coarsest_size=16)
        assert hierarchy.n_levels > 1  # coarsening actually happened
        result = stationary_distribution(
            op, method="krylov", preconditioner="amg",
            hierarchy=hierarchy, tol=1e-10,
        )
        assert result.converged

    def test_amg_via_solve_context(self):
        op = CDRTransitionOperator(**cdr_params())
        ctx = SolveContext(strategy="algebraic", coarsest_size=16)
        result = stationary_distribution(
            op, method="krylov", preconditioner="amg",
            hierarchy=ctx, tol=1e-10,
        )
        assert result.converged
        assert ctx.stats()["hierarchy_misses"] == 1

    def test_mismatched_hierarchy_rejected(self):
        small = birth_death_fixture(32)
        big = birth_death_fixture(64)
        hierarchy = build_hierarchy(small, strategy="algebraic", coarsest_size=8)
        with pytest.raises(ValueError, match="built for 32 states"):
            AMGPreconditioner(as_operator(big), hierarchy)

    def test_tripletless_operator_rejected_when_levels_exist(self):
        chain = birth_death_fixture(64)
        hierarchy = build_hierarchy(chain, strategy="algebraic", coarsest_size=8)

        class NoTriplets:
            shape = (64, 64)

            def __init__(self, P):
                self._P = P

            def matvec(self, v):
                return self._P @ v

            def rmatvec(self, x):
                return self._P.T @ x

            def diagonal(self):
                return self._P.diagonal()

            def row_sums(self):
                return np.asarray(self._P.sum(axis=1)).ravel()

        with pytest.raises(OperatorCapabilityError, match="triplets"):
            AMGPreconditioner(NoTriplets(chain.P), hierarchy)


class TripletsOnly:
    """All that matrix-free AMG reads: applies, diagonal and triplets."""

    def __init__(self, op):
        self._op = op

    @property
    def shape(self):
        return self._op.shape

    def matvec(self, v):
        return self._op.matvec(v)

    def rmatvec(self, x):
        return self._op.rmatvec(x)

    def diagonal(self):
        return self._op.diagonal()

    def triplets(self):
        return self._op.triplets()


class NoTriplets(TripletsOnly):
    triplets = None


@pytest.mark.amg
class TestAutoPreconditioner:
    @pytest.mark.parametrize("size", ["fast", "full"])
    def test_triplets_only_operator_resolves_to_amg(self, size):
        # fast (320 states) has no coarse level, so the preconditioner is
        # the fine operator's augmented LU; full (896 states) coarsens
        # algebraically.  Neither may touch to_csr(), which it lacks.
        scenario = get_scenario("bangbang-freq")
        op = build_bangbang_operator(scenario.params_for(size))
        result = stationary_distribution(TripletsOnly(op), method="krylov", tol=1e-12)
        assert result.method == "krylov-gmres+amg"
        assert result.converged
        reference = solve_direct(op.to_csr()).distribution
        assert np.abs(result.distribution - reference).sum() < 1e-10

    def test_operator_without_triplets_stays_unpreconditioned(self):
        op = NoTriplets(CDRTransitionOperator(**cdr_params()))
        result = stationary_distribution(op, method="krylov", tol=1e-10)
        assert result.method == "krylov-gmres"

    def test_assembled_operator_keeps_ilu(self):
        result = stationary_distribution(
            birth_death_fixture(64), method="krylov", tol=1e-10
        )
        assert result.method == "krylov-gmres+ilu"

    def test_zero_level_coarsest_is_the_operator_matrix(self):
        op = CDRTransitionOperator(**cdr_params())
        hierarchy = build_hierarchy(op)
        assert hierarchy.n_levels == 1
        P = op.to_csr()
        C = entries_csr(TripletsOnly(op))
        assert np.array_equal(C.indptr, P.indptr)
        assert np.array_equal(C.indices, P.indices)
        assert np.array_equal(C.data, P.data)


class TestIluCapability:
    def test_explicit_ilu_on_matrix_free_raises_typed_error(self):
        op = CDRTransitionOperator(**cdr_params())
        with pytest.raises(OperatorCapabilityError, match="ILU"):
            stationary_distribution(
                op, method="krylov", preconditioner="ilu", tol=1e-10
            )

    def test_explicit_ilu_on_assembled_still_works(self):
        chain = birth_death_fixture(64)
        result = stationary_distribution(
            chain, method="krylov", preconditioner="ilu", tol=1e-10
        )
        assert result.converged

    def test_unknown_preconditioner_rejected(self):
        with pytest.raises(ValueError, match="unknown preconditioner"):
            stationary_distribution(
                birth_death_fixture(16), method="krylov",
                preconditioner="cholesky",
            )


# --------------------------------------------------------------------- #
# coarsening edge cases
# --------------------------------------------------------------------- #

class TestCoarseningEdgeCases:
    def test_all_singleton_partition_restricts_to_the_same_chain(self):
        chain = birth_death_fixture(16)
        singletons = Partition(np.arange(16))
        coarse = lumped_tpm(chain.P, singletons)
        np.testing.assert_allclose(
            coarse.toarray(), chain.P.toarray(), atol=1e-15
        )

    def test_decoupled_chain_yields_singletons_and_no_levels(self):
        # Self-loop-only chain: no off-diagonal coupling, so the
        # strength-of-connection aggregation leaves every state alone and
        # hierarchy construction stops instead of looping.
        P = sp.identity(12, format="csr")
        part = strength_of_connection_partition(P)
        assert part.n_blocks == 12
        hierarchy = build_hierarchy(
            MarkovChain(P), strategy="algebraic", coarsest_size=2
        )
        assert hierarchy.level_sizes == (12,)
        assert hierarchy.partitions == ()

    def test_coarsest_size_boundary(self):
        chain = birth_death_fixture(64)
        at = build_hierarchy(chain, strategy="algebraic", coarsest_size=64)
        below = build_hierarchy(chain, strategy="algebraic", coarsest_size=63)
        assert at.level_sizes == (64,)  # already coarse enough: no levels
        assert below.n_levels > 1
        assert below.level_sizes[-1] <= 63 or below.n_levels == 25

    def test_max_levels_caps_the_stack(self):
        chain = birth_death_fixture(64)
        capped = build_hierarchy(
            chain, strategy="algebraic", coarsest_size=2, max_levels=2
        )
        assert capped.n_levels <= 2

    def test_level_sizes_strictly_decrease(self):
        hierarchy = build_hierarchy(
            birth_death_fixture(128), strategy="algebraic", coarsest_size=4
        )
        sizes = hierarchy.level_sizes
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_theta_validation(self):
        P = birth_death_fixture(8).P
        with pytest.raises(ValueError, match="theta"):
            strength_of_connection_partition(P, theta=0.0)
        with pytest.raises(ValueError, match="max_aggregate"):
            strength_of_connection_partition(P, max_aggregate=1)


# --------------------------------------------------------------------- #
# Galerkin row-sum preservation across backends (property test)
# --------------------------------------------------------------------- #

_ASSEMBLED = as_operator(build_cdr_chain(**cdr_params(M=16, counter=2)).chain)
_MATRIX_FREE = CDRTransitionOperator(**cdr_params(M=16, counter=2))
# The merged-weight-row design of tests/cdr/test_network_cdr.py: with the
# phase step G equal to one n_r step, two decisions reach the same
# (destination, shift) and the RollPlan materializes merged rows.
_MERGED_ROWS = CDRTransitionOperator(
    grid=PhaseGrid(16),
    nw=DiscreteDistribution([-0.1, 0.0, 0.1], [0.25, 0.5, 0.25]),
    nr=DiscreteDistribution(
        [-PhaseGrid(16).step, 0.0, PhaseGrid(16).step], [0.2, 0.55, 0.25]
    ),
    counter_length=2,
    phase_step_units=1,
    max_run_length=2,
)
_KRONECKER = _kronecker_fixture()
_BRANCH_SUM = build_bangbang_operator(
    get_scenario("bangbang-freq").params_for("fast")
)


@pytest.mark.amg
class TestGalerkinRowSums:
    @pytest.mark.parametrize(
        "op", [_ASSEMBLED, _MATRIX_FREE, _KRONECKER],
        ids=["assembled", "matrix-free", "kronecker"],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_coarse_operator_rows_sum_to_one(self, op, seed):
        # Any partition and any positive weighting: the weighted Galerkin
        # restriction of a stochastic operator is stochastic.
        n = op.shape[0]
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, max(2, n // 3), size=n)
        _, block_of = np.unique(raw, return_inverse=True)
        partition = Partition(block_of)
        weights = rng.uniform(0.1, 1.0, size=n)
        coarse = lumped_tpm(op, partition, weights)
        rows = np.asarray(coarse.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "op", [_MATRIX_FREE, _MERGED_ROWS, _BRANCH_SUM, _KRONECKER],
        ids=["matrix-free", "merged-rows", "branch-sum", "kronecker"],
    )
    def test_restrict_matches_assembled_lumping(self, op):
        rng = np.random.default_rng(3)
        n = op.shape[0]
        raw = rng.integers(0, n // 2, size=n)
        _, block_of = np.unique(raw, return_inverse=True)
        partition = Partition(block_of)
        weights = rng.uniform(0.1, 1.0, size=n)
        expected = lumped_tpm(op.to_csr(), partition, weights=weights)
        got = lumped_tpm(op, partition, weights=weights)
        if isinstance(op, KroneckerDescriptor):
            # Per-term chunks overlap, so the sums run in another order.
            np.testing.assert_allclose(
                got.toarray(), expected.toarray(), atol=1e-12
            )
        else:
            # These backends yield their entries in CSR order: bit for bit.
            np.testing.assert_array_equal(got.indptr, expected.indptr)
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_array_equal(got.data, expected.data)

    def test_merged_rows_input_has_merged_weight_rows(self):
        # Q holds a ones row and the three decision masses; anything
        # beyond those four is a merged row.
        assert _MERGED_ROWS._plan.q.shape[0] > 4


# --------------------------------------------------------------------- #
# Galerkin plans: symbolic once, numeric per weighting
# --------------------------------------------------------------------- #

# The EXT-OP design (16 clock phases, COUNTER=8, L=2, 9 n_w atoms) at a
# small phase grid, on both backends.
_EXT_OP_SPEC = CDRSpec(
    n_phase_points=32, n_clock_phases=16, counter_length=8,
    max_run_length=2, nw_std=0.08, nw_atoms=9,
)
_EXT_OP = get_backend("assembled").build(_EXT_OP_SPEC).chain.P
_EXT_OP_FREE = get_backend("matrix-free").build(_EXT_OP_SPEC).operator
_PLAN_INPUTS = [_EXT_OP, _EXT_OP_FREE, _MERGED_ROWS, _BRANCH_SUM, _KRONECKER]
_PLAN_IDS = ["assembled", "ext-op", "merged-rows", "branch-sum", "kronecker"]


def _dense(op):
    return op.toarray() if sp.issparse(op) else op.to_csr().toarray()


def _random_partition(n, seed=5):
    raw = np.random.default_rng(seed).integers(0, max(2, n // 3), size=n)
    return Partition(np.unique(raw, return_inverse=True)[1])


def _weightings(n):
    rng = np.random.default_rng(11)
    return [
        rng.uniform(0.1, 1.0, size=n),
        rng.exponential(size=n),
        # a stationary-vector-like tail spanning twelve decades
        10.0 ** -np.linspace(0.0, 12.0, n)[rng.permutation(n)],
    ]


@pytest.mark.amg
class TestGalerkinPlan:
    @pytest.mark.parametrize("op", _PLAN_INPUTS, ids=_PLAN_IDS)
    def test_reused_plan_matches_the_definition(self, op):
        # C[I, J] = sum_{i in I} w_i sum_{j in J} P_ij / mass_I, evaluated
        # in extended precision; one plan serves every weighting.
        n = op.shape[0]
        partition = _random_partition(n)
        plan = GalerkinPlan(op, partition)
        P = _dense(op).astype(np.longdouble)
        V = partition.aggregation_matrix().toarray().astype(np.longdouble)
        for w in _weightings(n):
            wl = w.astype(np.longdouble)
            mass = V.T @ wl
            expected = (V.T @ (wl[:, None] * P) @ V) / mass[:, None]
            got = plan.coarse(op, w)
            np.testing.assert_allclose(
                got.toarray(), expected.astype(float), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("op", _PLAN_INPUTS, ids=_PLAN_IDS)
    def test_plan_split_applies_like_jacobi_split(self, op):
        n = op.shape[0]
        plan = GalerkinPlan(op, _random_partition(n))
        C = plan.coarse(op, _weightings(n)[2])
        off, inv_diag = plan.split(C)
        ref_off, ref_inv_diag = jacobi_split(C)
        rng = np.random.default_rng(2)
        x = rng.uniform(size=C.shape[0])
        X = rng.uniform(size=(C.shape[0], 3))
        np.testing.assert_array_equal(off.dot(x), ref_off.dot(x))
        np.testing.assert_array_equal(off.dot(X), ref_off.dot(X))
        np.testing.assert_array_equal(inv_diag, ref_inv_diag)

    def test_matrix_with_another_pattern_rejected(self):
        partition = _random_partition(_EXT_OP.shape[0])
        plan = GalerkinPlan(_EXT_OP, partition)
        pruned = _EXT_OP.copy()
        pruned.data[pruned.data < 1e-3] = 0.0
        pruned.eliminate_zeros()
        with pytest.raises(ValueError, match="pattern"):
            plan.coarse(pruned)

    def test_matrix_free_solve_reads_triplets_once(self):
        # Deterministic: counts calls, never times them.  Each solve plans
        # the fine level once and reuses the pattern on every cycle.
        op = CDRTransitionOperator(**cdr_params(M=64, counter=3))
        with profiled(metrics=False) as session:
            fine = instrument_operator(op, role="fine")
            results = [
                solve_multigrid(
                    fine, strategy=op.multigrid_strategy(), tol=1e-12,
                    coarsest_size=64,
                )
                for _ in range(2)
            ]
            ops = session.snapshot()["operators"]["fine"]["ops"]
        for res in results:
            assert res.converged
            assert res.iterations >= 10
        assert ops["triplets"]["calls"] == len(results)
        assert "to_csr" not in ops


# --------------------------------------------------------------------- #
# algebraic coarsening on the conformance fixtures
# --------------------------------------------------------------------- #

@pytest.mark.amg
class TestAlgebraicConformance:
    @pytest.mark.parametrize(
        "fixture",
        [
            lambda: birth_death_fixture(64),
            nearly_uncoupled_fixture,
            bangbang_frequency_fixture,
            mesochronous_fixture,
        ],
        ids=["birth-death", "nearly-uncoupled", "bangbang", "mesochronous"],
    )
    def test_multigrid_algebraic_matches_direct(self, fixture):
        chain = fixture()
        result = stationary_distribution(
            chain, method="multigrid", strategy="algebraic",
            coarsest_size=16, tol=1e-10,
        )
        assert result.converged
        reference = solve_direct(chain)
        np.testing.assert_allclose(
            result.distribution, reference.distribution, atol=1e-7
        )
