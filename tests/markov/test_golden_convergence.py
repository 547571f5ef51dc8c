"""Golden convergence-regression tests.

Expected iteration counts (with tolerance bands) for each solver on fixed,
fully deterministic chains.  A solver change that slows convergence -- or a
smoothing/coarsening regression in the multigrid -- fails here in tier-1
instead of only surfacing in the benchmark suite.

The golden numbers were measured at the telemetry-refactor baseline
(scipy 1.17 / numpy 2.x); the bands are wide enough (+/-35% for the
iterative methods) to absorb BLAS/rounding drift across platforms while
still catching algorithmic regressions, which move counts by integer
factors.
"""

import pytest

from repro.markov import conformance as cf

TOL = 1e-10

# solver -> (expected iterations, relative band); measured on the
# birth-death(64) fixture (up=0.3, down=0.4) at tol=1e-10.
GOLDEN_BIRTH_DEATH = {
    "power": (2691, 0.35),
    "jacobi": (2653, 0.35),
    "gauss-seidel": (950, 0.35),
    "sor": (638, 0.35),
    "multigrid": (24, 0.50),
}

# Same contract on the nearly-uncoupled fixture (block_size=6, eps=0.02,
# seed=42) -- the stiff case where multigrid's advantage is largest.
GOLDEN_NEARLY_UNCOUPLED = {
    "power": (2044, 0.35),
    "jacobi": (2523, 0.35),
    "gauss-seidel": (939, 0.35),
    "sor": (645, 0.35),
    "multigrid": (7, 1.0),
}


def _solve(chain, solver):
    kwargs = {"coarsest_size": 8} if solver == "multigrid" else {}
    return cf.CONFORMANCE_SOLVERS[solver](chain.P, tol=TOL, **kwargs)


@pytest.mark.parametrize("solver", sorted(GOLDEN_BIRTH_DEATH))
def test_birth_death_iteration_count(solver):
    expected, band = GOLDEN_BIRTH_DEATH[solver]
    res = _solve(cf.birth_death_fixture(), solver)
    assert res.converged
    lo, hi = expected * (1 - band), expected * (1 + band)
    assert lo <= res.iterations <= hi, (
        f"{solver}: {res.iterations} iterations, golden {expected} "
        f"(allowed [{lo:.0f}, {hi:.0f}])"
    )


@pytest.mark.parametrize("solver", sorted(GOLDEN_NEARLY_UNCOUPLED))
def test_nearly_uncoupled_iteration_count(solver):
    expected, band = GOLDEN_NEARLY_UNCOUPLED[solver]
    res = _solve(cf.nearly_uncoupled_fixture(), solver)
    assert res.converged
    lo, hi = expected * (1 - band), max(expected * (1 + band), expected + 2)
    assert lo <= res.iterations <= hi, (
        f"{solver}: {res.iterations} iterations, golden {expected} "
        f"(allowed [{lo:.0f}, {hi:.0f}])"
    )


def test_direct_and_krylov_stay_direct():
    """Direct is one shot; preconditioned GMRES must stay within a handful
    of restart snapshots on an easy banded chain."""
    chain = cf.birth_death_fixture()
    assert _solve(chain, "direct").iterations == 1
    assert _solve(chain, "arnoldi").iterations == 1
    assert _solve(chain, "krylov").iterations <= 5


def test_multigrid_beats_stationary_methods():
    """The headline ordering the paper's solver table rests on."""
    chain = cf.nearly_uncoupled_fixture()
    mg = _solve(chain, "multigrid")
    for slow_solver in ("power", "jacobi", "gauss-seidel"):
        assert _solve(chain, slow_solver).iterations > 10 * mg.iterations
