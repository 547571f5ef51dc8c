"""No unconverged stationary vector reaches a scenario measure.

Two halves: the default Krylov solve converges on the drift-dominated
bang-bang frequency-detector chain that unpreconditioned GMRES could not
solve (5,001 iterations, L1 error 1.2 against the direct solve), and a
solve that does stop short raises a typed ``SolverFailure`` from
``evaluate`` instead of returning measures computed from it.
"""

import numpy as np
import pytest

from repro.markov.linop import as_operator
from repro.markov.solvers.direct import solve_direct
from repro.markov.stationary import stationary_distribution
from repro.resilience import SolverFailure
from repro.scenarios import bangbang, mesochronous
from repro.scenarios.registry import get_scenario

pytestmark = pytest.mark.scenario


@pytest.mark.parametrize("backend", ["assembled", "matrix-free"])
def test_bangbang_default_krylov_converges(backend):
    scenario = get_scenario("bangbang-freq")
    params = dict(scenario.params_for("fast"), nw_std=0.05)
    chain = scenario.build(params, backend=backend).chain
    result = stationary_distribution(chain, method="krylov", tol=1e-12)
    assert result.converged
    assert result.iterations <= 10
    reference = solve_direct(as_operator(chain).to_csr()).distribution
    assert np.abs(result.distribution - reference).sum() <= 1e-10
    if backend == "matrix-free":
        assert result.method.endswith("+amg")


@pytest.mark.parametrize(
    "module, name",
    [(bangbang, "bangbang-freq"), (mesochronous, "mesochronous-settle")],
)
def test_evaluate_raises_on_unconverged_solve(monkeypatch, module, name):
    def two_sweeps(chain, method, tol):
        return stationary_distribution(chain, method=method, tol=tol, max_iter=2)

    monkeypatch.setattr(module, "stationary_distribution", two_sweeps)
    scenario = get_scenario(name)
    params = scenario.params_for("fast")
    model = scenario.build(params, backend="matrix-free")
    with pytest.raises(SolverFailure, match="did not converge") as info:
        scenario.evaluate(model, params, solver="power", tol=1e-12)
    assert info.value.method == "power"
    assert info.value.iteration == 2
