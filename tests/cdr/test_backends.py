"""Backend-equivalence suite: assembled / matrix-free.

Both registered TPM backends are built from the same structural operator,
so they realize the *same* matrix bit for bit: the assembled CSR equals
the operator's ``to_csr()`` exactly, matvec/rmatvec agree, structural
queries (diagonal, row sums, slip flux, Galerkin restriction) match the
assembled reference, multigrid solves agree bit for bit, and the
stationary distribution -- and therefore BER and slip MTBF -- agree
through the registry for every solver the backend supports.
"""

import numpy as np
import pytest

import repro.cdr.backends  # noqa: F401  (registers the built-in backends)
from repro.cdr.backends import OperatorCDRModel
from repro.cdr.operator import CDRTransitionOperator
from repro.core.analyzer import analyze_cdr
from repro.core.spec import CDRSpec
from repro.markov import (
    as_operator,
    backend_names,
    build_hierarchy,
    get_backend,
    solver_table,
)
from repro.markov.lumping import Partition, lumped_tpm
from repro.scenarios.registry import get_scenario, scenario_names

pytestmark = pytest.mark.operator


def small_spec(**overrides) -> CDRSpec:
    base = dict(
        n_phase_points=32,
        n_clock_phases=16,
        counter_length=2,
        max_run_length=2,
        nw_std=0.08,
        nw_atoms=7,
    )
    base.update(overrides)
    return CDRSpec(**base)


@pytest.fixture(scope="module")
def pair():
    """The same small spec realized by both backends."""
    spec = small_spec()
    assembled = get_backend("assembled").build(spec)
    mf = get_backend("matrix-free").build(spec)
    return spec, assembled, mf


class TestRegisteredBackends:
    def test_names(self):
        assert set(backend_names()) == {"assembled", "matrix-free"}

    def test_unknown_backend_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("bogus")

    def test_spec_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            small_spec(backend="bogus")

    def test_facade_types(self, pair):
        _, assembled, mf = pair
        assert isinstance(mf, OperatorCDRModel)
        assert isinstance(mf.chain, CDRTransitionOperator)
        assert mf.slip_matrix is None
        assert assembled.slip_matrix is not None


class TestMatvecAgreement:
    """matvec/rmatvec and structural queries, matrix-free vs assembled."""

    def test_random_vectors(self, pair):
        _, assembled, mf = pair
        P = assembled.chain.P
        ops = {"assembled": as_operator(assembled.chain), "matrix-free": mf.chain}
        rng = np.random.default_rng(42)
        for _ in range(5):
            v = rng.random(assembled.n_states)
            ref_mv = P.dot(v)
            ref_rmv = P.T.dot(v)
            for name, op in ops.items():
                np.testing.assert_array_equal(op.matvec(v), ref_mv, err_msg=name)
                np.testing.assert_array_equal(op.rmatvec(v), ref_rmv, err_msg=name)

    def test_diagonal_and_row_sums(self, pair):
        _, assembled, mf = pair
        P = assembled.chain.P
        np.testing.assert_allclose(mf.chain.diagonal(), P.diagonal(), atol=1e-14)
        np.testing.assert_allclose(mf.chain.row_sums(), 1.0, atol=1e-12)

    def test_to_csr_reproduces_assembled(self, pair):
        _, assembled, mf = pair
        assert_assembled_is_operator_csr(assembled, mf)

    def test_slip_row_sums_match_slip_matrix(self, pair):
        _, assembled, mf = pair
        ref = np.asarray(assembled.slip_matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(mf.slip_row_sums(), ref, atol=1e-14)

    def test_restrict_matches_lumped_tpm(self, pair):
        _, assembled, mf = pair
        part = build_hierarchy(
            mf.chain, strategy=mf.multigrid_strategy(), coarsest_size=1
        ).partitions[0]
        # (d, c, m) = (2, 3, 32) -> (1, 2, 16): blocks of up to 8 states.
        assert part.n_blocks == 32
        w = np.random.default_rng(7).random(assembled.n_states)
        ref = lumped_tpm(assembled.chain.P, part, weights=w)
        C = lumped_tpm(mf.chain, part, weights=w)
        assert_same_csr(C, ref)


def assert_same_csr(P, Q):
    np.testing.assert_array_equal(P.indptr, Q.indptr)
    np.testing.assert_array_equal(P.indices, Q.indices)
    np.testing.assert_array_equal(P.data, Q.data)


def assert_assembled_is_operator_csr(assembled, mf):
    """The assembled backend's matrix is the operator's CSR, bit for bit."""
    assert_same_csr(assembled.chain.P, mf.chain.to_csr())


class TestBitwiseAcrossSpecs:
    @pytest.mark.parametrize("name", scenario_names())
    def test_registered_scenario_specs(self, name):
        scenario = get_scenario(name)
        params = scenario.params_for("fast")
        mf = scenario.build(params, backend="matrix-free")
        assembled = scenario.build(params, backend="assembled")
        assert_assembled_is_operator_csr(assembled, mf)
        x = np.random.default_rng(11).random(mf.n_states)
        np.testing.assert_array_equal(
            as_operator(assembled.chain).rmatvec(x), mf.chain.rmatvec(x)
        )

    @pytest.mark.parametrize("M", [512, 2048])
    def test_ext_op_design(self, M):
        spec = CDRSpec(
            n_phase_points=M, n_clock_phases=16, counter_length=8,
            max_run_length=2, nw_std=0.08, nw_atoms=9,
        )
        assert_assembled_is_operator_csr(
            get_backend("assembled").build(spec),
            get_backend("matrix-free").build(spec),
        )


class TestMultigridAgreement:
    """Both backends build their coarse levels from the same CSR-order
    entries, so whole multigrid solves agree bit for bit."""

    @pytest.mark.parametrize("nw_std", [0.05, 0.050251])
    def test_ext_op_design_m512(self, nw_std):
        spec = CDRSpec(
            n_phase_points=512, n_clock_phases=16, counter_length=8,
            max_run_length=2, nw_std=nw_std, nw_atoms=9,
        )
        assembled = analyze_cdr(spec, backend="assembled", solver="multigrid")
        mf = analyze_cdr(spec, backend="matrix-free", solver="multigrid")
        np.testing.assert_array_equal(
            mf.solver_result.distribution, assembled.solver_result.distribution
        )
        assert mf.ber == assembled.ber


class TestStationaryAgreement:
    """Every backend x iterative-solver pair through the registry."""

    def test_all_pairs(self, pair):
        from repro.markov import stationary_distribution

        spec, assembled, mf = pair
        ref = stationary_distribution(assembled.chain, method="direct").distribution
        models = {"assembled": assembled, "matrix-free": mf}
        for entry in solver_table():
            for backend, model in models.items():
                if not entry.matrix_free and backend == "assembled":
                    continue  # covered by the reference + solver suites
                res = stationary_distribution(
                    model.chain, method=entry.name, tol=1e-11
                )
                assert res.converged, (backend, entry.name)
                assert np.abs(res.distribution - ref).sum() < 1e-7, (
                    backend, entry.name,
                )


class TestAnalyzerAgreement:
    def test_ber_and_slips_agree(self):
        # nw_std chosen so BER and the slip rate are well above the solver
        # tolerance; deeper tails are unresolved noise at tol=1e-12 and
        # cannot be expected to agree between exact and iterative solves.
        spec = small_spec(nw_std=0.25)
        ref = analyze_cdr(spec)
        for backend in ("matrix-free",):
            res = analyze_cdr(spec, backend=backend, solver="multigrid", tol=1e-12)
            assert res.backend == backend
            assert res.solver_entry == "multigrid"
            assert abs(res.ber - ref.ber) <= 1e-8 * ref.ber, backend
            if np.isfinite(ref.mean_symbols_between_slips):
                assert np.isclose(
                    res.mean_symbols_between_slips,
                    ref.mean_symbols_between_slips,
                    rtol=1e-6,
                ), backend

    def test_auto_solver_policy_matrix_free(self):
        res = analyze_cdr(small_spec(), backend="matrix-free")
        # Small model + no assembled matrix -> power, not direct.
        assert res.solver_entry == "power"
        assert res.solver_result.converged

    def test_backend_recorded_in_manifest(self):
        from repro.obs import Tracer, build_run_manifest, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            analysis = analyze_cdr(small_spec(), backend="matrix-free")
            manifest = build_run_manifest(
                kind="analysis", spec=analysis.spec, analysis=analysis,
                tracer=tracer,
            )
        assert manifest["results"]["backend"] == "matrix-free"
        assert manifest["results"]["solver_entry"] == analysis.solver_entry
        assert manifest["spec"]["backend"] == "assembled"

    def test_spec_backend_round_trips(self):
        from repro.core.serialize import spec_from_dict, spec_to_dict

        spec = small_spec(backend="matrix-free")
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestNeverMaterializes:
    def test_matrix_free_multigrid_never_calls_to_csr(self, monkeypatch):
        def boom(self):  # pragma: no cover - failure path
            raise AssertionError("matrix-free path materialized the TPM")

        monkeypatch.setattr(CDRTransitionOperator, "to_csr", boom)
        spec = small_spec(n_phase_points=64)
        res = analyze_cdr(spec, backend="matrix-free", solver="multigrid")
        assert res.solver_result.converged
        assert res.ber > 0

    def test_direct_raises_capability_error_matrix_free(self, monkeypatch):
        from repro.markov import OperatorCapabilityError

        def boom(self):
            raise OperatorCapabilityError("no materialization in this test")

        monkeypatch.setattr(CDRTransitionOperator, "to_csr", boom)
        with pytest.raises(OperatorCapabilityError):
            analyze_cdr(small_spec(), backend="matrix-free", solver="direct")


@pytest.mark.slow
class TestAcceptanceScale:
    def test_1e5_states_end_to_end_matrix_free(self, monkeypatch):
        """>=1e5-state spec: BER + slip MTBF via matrix-free multigrid,
        never materializing, matching assembled to rtol 1e-8."""

        def boom(self):  # pragma: no cover - failure path
            raise AssertionError("matrix-free path materialized the TPM")

        spec = CDRSpec(n_phase_points=2048, counter_length=12, nw_std=0.15)
        assert spec.expected_state_count() >= 100_000

        monkeypatch.setattr(CDRTransitionOperator, "to_csr", boom)
        mf = analyze_cdr(spec, backend="matrix-free", solver="multigrid", tol=1e-12)
        monkeypatch.undo()
        ref = analyze_cdr(spec, solver="multigrid", tol=1e-12)

        assert mf.solver_result.converged
        assert abs(mf.ber - ref.ber) <= 1e-8 * ref.ber
        assert np.isfinite(mf.mean_symbols_between_slips)
        assert np.isclose(
            mf.mean_symbols_between_slips,
            ref.mean_symbols_between_slips,
            rtol=1e-6,
        )
