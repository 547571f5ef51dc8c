"""The survival kernel behind ``first_passage_survival``.

``csr_survival`` runs the whole absorbed-propagation loop in one kernel
call.  Its contract: the summary is *bitwise* the one the step-by-step
``rmatvec`` loop produces, on every tier and backend, because the table
reproduces each backend's ``rmatvec`` and the per-step sum follows
NumPy's pairwise summation order (ported to C for the compiled tier).
"""

import functools

import numpy as np
import pytest

from repro.kernels import available_tiers, use_tier
from repro.markov import MarkovChain, OperatorCapabilityError
from repro.markov.linop import as_operator
from repro.obs.profile import profiled
from repro.scenarios.bangbang import build_bangbang_operator, locked_mask
from repro.scenarios.measures import first_passage_survival, tv_settling_time
from repro.scenarios.registry import get_scenario

pytestmark = [pytest.mark.operator]

TIERS = available_tiers()


def reference_loop(op, start, target_mask, quantile=0.99,
                   survival_tol=1e-12, max_steps=200_000):
    """The step-by-step ``rmatvec`` loop the kernel replaces."""
    operator = as_operator(op)
    mask = np.asarray(target_mask, dtype=bool)
    x = np.asarray(start, dtype=float).copy()
    x[mask] = 0.0
    survival = float(x.sum())
    mean = survival
    quantile_at = 0 if survival <= 1.0 - quantile else None
    prev = survival
    steps = 0
    while survival > survival_tol and steps < max_steps:
        x = operator.rmatvec(x)
        x[mask] = 0.0
        prev, survival = survival, float(x.sum())
        steps += 1
        mean += survival
        if quantile_at is None and survival <= 1.0 - quantile:
            quantile_at = steps
    if survival > 0.0 and prev > survival:
        ratio = survival / prev
        if ratio < 1.0:
            mean += survival * ratio / (1.0 - ratio)
    return (
        float(mean),
        float(quantile_at if quantile_at is not None else np.inf),
        survival,
        steps,
    )


def summary_tuple(summary):
    return (
        summary.mean_symbols,
        summary.quantile_symbols,
        summary.p_unabsorbed,
        summary.steps_run,
    )


def bangbang_case(size, backend, tier):
    """Operator, start and target mask of the scenario's acquisition."""
    params = get_scenario("bangbang-freq").params_for(size)
    with use_tier(tier):
        op = build_bangbang_operator(params)
    if backend == "assembled":
        op = MarkovChain(op.to_csr(), validate=False)
    mask = locked_mask(params)
    start = np.zeros(mask.size)
    start[2 * params["freq_max"] * params["n_phase_points"]] = 1.0
    return op, start, mask


@functools.lru_cache(maxsize=None)
def bangbang_reference(size, backend):
    return reference_loop(*bangbang_case(size, backend, "numpy"))


def cdr_case(tier):
    from repro.cdr import CDRTransitionOperator, PhaseGrid
    from repro.noise import DiscreteDistribution, eye_opening_noise

    grid = PhaseGrid(32)
    with use_tier(tier):
        op = CDRTransitionOperator(
            grid=grid,
            nw=eye_opening_noise(0.08, n_atoms=7),
            nr=DiscreteDistribution([-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]),
            counter_length=2,
            phase_step_units=2,
            max_run_length=2,
        )
    # Target: the phase band within 0.1 UI of the sampling point, in
    # every counter/run-length block.
    band = np.abs(grid.values) <= 0.1
    mask = np.tile(band, op.n // grid.n_points)
    start = np.zeros(op.n)
    start[int(np.argmax(np.abs(grid.values)))] = 1.0
    return op, start, mask


# --------------------------------------------------------------------- #
# the pairwise-sum port
# --------------------------------------------------------------------- #

@pytest.mark.skipif("cext" not in TIERS, reason="compiled tier unavailable")
class TestPairwiseSumPort:
    LENGTHS = list(range(0, 1101)) + [4096, 15360, 65537]

    def test_equals_ndarray_sum_bitwise(self):
        from repro.kernels import cext_tier

        rng = np.random.default_rng(11)
        pool = rng.standard_normal(65537) * 10.0 ** rng.integers(-12, 12, 65537)
        for n in self.LENGTHS:
            a = pool[:n]
            assert cext_tier.pairwise_sum(a) == a.sum(), n
            assert np.signbit(cext_tier.pairwise_sum(a)) == np.signbit(a.sum()), n

    def test_negative_zeros_sum_to_positive_zero(self):
        from repro.kernels import cext_tier

        for n in (1, 7, 8, 129):
            a = np.full(n, -0.0)
            assert not np.signbit(a.sum())
            assert not np.signbit(cext_tier.pairwise_sum(a))


# --------------------------------------------------------------------- #
# bitwise equality with the step loop
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("backend", ["assembled", "matrix-free"])
@pytest.mark.parametrize("size", ["fast", "full"])
def test_bangbang_bitwise(size, backend, tier):
    op, start, mask = bangbang_case(size, backend, tier)
    with use_tier(tier):
        got = summary_tuple(first_passage_survival(op, start, mask))
    assert got == bangbang_reference(size, backend)


@pytest.mark.parametrize("tier", TIERS)
def test_cdr_operator_bitwise(tier):
    op, start, mask = cdr_case(tier)
    with use_tier(tier):
        got = summary_tuple(first_passage_survival(op, start, mask))
    assert got == reference_loop(op, start, mask)
    assert got[3] > 0


def test_kronecker_operator_matches_its_loop():
    # A Kronecker rmatvec is a factored apply, not a CSR row sum, so the
    # table only reproduces it to rounding.
    from repro.fsm import KroneckerDescriptor

    rng = np.random.default_rng(5)

    def stochastic(n):
        A = rng.random((n, n)) + 0.05
        return A / A.sum(axis=1, keepdims=True)

    op = KroneckerDescriptor([5, 6])
    op.add_term([stochastic(5), stochastic(6)], 0.6)
    op.add_term([stochastic(5), stochastic(6)], 0.4)
    mask = np.zeros(op.n, dtype=bool)
    mask[:3] = True
    start = np.full(op.n, 1.0 / op.n)
    got = first_passage_survival(op, start, mask)
    mean, q, p, steps = reference_loop(op, start, mask)
    assert got.mean_symbols == pytest.approx(mean, rel=1e-12)
    assert got.p_unabsorbed == pytest.approx(p, rel=1e-9)
    assert got.quantile_symbols == q
    assert abs(got.steps_run - steps) <= 1


# --------------------------------------------------------------------- #
# edge cases
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("tier", TIERS)
class TestEdgeCases:
    def test_start_inside_target(self, tier):
        op, _, mask = bangbang_case("fast", "matrix-free", tier)
        start = mask / mask.sum()
        with use_tier(tier):
            got = first_passage_survival(op, start, mask)
        assert got.steps_run == 0
        assert got.mean_symbols == 0.0
        assert got.quantile_symbols == 0.0
        assert summary_tuple(got) == reference_loop(op, start, mask)

    def test_quantile_met_at_step_zero(self, tier):
        op, _, mask = bangbang_case("fast", "matrix-free", tier)
        # 99.5% of the mass starts on the target.
        start = 0.995 * mask / mask.sum()
        start[np.flatnonzero(~mask)[0]] = 0.005
        with use_tier(tier):
            got = first_passage_survival(op, start, mask)
        assert got.quantile_symbols == 0.0
        assert got.steps_run > 0
        assert summary_tuple(got) == reference_loop(op, start, mask)

    def test_max_steps_hit(self, tier):
        op, start, mask = bangbang_case("fast", "assembled", tier)
        with use_tier(tier):
            got = first_passage_survival(op, start, mask, max_steps=50)
        assert got.steps_run == 50
        assert got.quantile_symbols == np.inf
        assert got.p_unabsorbed > 1e-12
        assert summary_tuple(got) == reference_loop(op, start, mask, max_steps=50)

    def test_operator_without_triplets_raises(self, tier):
        inner = as_operator(bangbang_case("fast", "assembled", tier)[0])

        class NoTriplets:
            shape = inner.shape
            matvec = staticmethod(inner.matvec)
            rmatvec = staticmethod(inner.rmatvec)
            diagonal = staticmethod(inner.diagonal)
            row_sums = staticmethod(inner.row_sums)

        start = np.zeros(inner.shape[0])
        start[0] = 1.0
        mask = np.zeros(inner.shape[0], dtype=bool)
        mask[-1] = True
        with use_tier(tier), pytest.raises(OperatorCapabilityError):
            first_passage_survival(NoTriplets(), start, mask)


# --------------------------------------------------------------------- #
# profiling: the kernel's steps count as rmatvec calls
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", ["assembled", "matrix-free"])
def test_profiled_steps_recorded_as_rmatvecs(backend):
    op, start, mask = bangbang_case("fast", backend, TIERS[0])
    n = start.size
    with profiled(metrics=False) as session:
        got = first_passage_survival(op, start, mask)
    entry = session.snapshot()["operators"]["measure.first_passage"]
    rmatvec = entry["ops"]["rmatvec"]
    assert rmatvec["calls"] == got.steps_run > 0
    assert rmatvec["bytes"] == got.steps_run * 16 * n
    assert set(entry["ops"]) == {"rmatvec"}
    assert entry["instances"] == 1 and entry["n_states"] == n


def test_bulk_record_observes_histogram_once():
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import ProfileSession

    registry = MetricsRegistry()
    session = ProfileSession(registry=registry)
    session.record("r", "rmatvec", 0.5, 1600, calls=100)
    session.record("r", "rmatvec", 0.25, 16)
    assert session.operators["r"]["rmatvec"] == [101, 0.75, 1616]
    hist = registry.get("repro_operator_call_seconds")
    assert hist.count(role="r", op="rmatvec") == 2


# --------------------------------------------------------------------- #
# tv_settling_time stops at the horizon
# --------------------------------------------------------------------- #

def test_tv_settling_horizon_makes_max_steps_applies():
    op, start, _ = bangbang_case("fast", "assembled", TIERS[0])
    far = np.zeros_like(start)
    far[-1] = 1.0
    with profiled(metrics=False) as session:
        settled = tv_settling_time(op, start, far, epsilon=1e-6, max_steps=50)
    assert settled == 50
    calls = session.snapshot()["operators"]["measure.tv_settling"]["ops"]
    assert calls["rmatvec"]["calls"] == 50
