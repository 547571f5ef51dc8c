"""Top-level iterant recombination in the multigrid solver.

The recombined iterate must keep the BER tail of the direct solution,
keep the two CDR backends bitwise equal, and never make ``converged``,
the reported residual or a checkpoint resume mean anything other than
they did for a plain V-cycle iterate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analyzer import analyze_cdr
from repro.core.spec import CDRSpec
from repro.markov import multigrid, solve_multigrid
from repro.markov.linop import as_operator, operator_residual
from repro.resilience.checkpoint import SolverCheckpointer, load_solver_checkpoint

TOL = 1e-10


def ext_op_spec(M: int, nw_std: float = 0.05) -> CDRSpec:
    return CDRSpec(
        n_phase_points=M, n_clock_phases=16, counter_length=8,
        max_run_length=2, nw_std=nw_std, nw_atoms=9,
    )


@pytest.fixture(scope="module")
def m128_model():
    return analyze_cdr(ext_op_spec(128), solver="direct").model


def _solve(model, **kwargs):
    kwargs.setdefault("nu_pre", 8)
    kwargs.setdefault("nu_post", 8)
    return solve_multigrid(
        model.chain.P, strategy=model.multigrid_strategy(), tol=TOL, **kwargs
    )


@pytest.mark.parametrize("nw_std", [0.05, 0.06])
@pytest.mark.parametrize(
    "M", [512, pytest.param(2048, marks=pytest.mark.slow)]
)
def test_ber_matches_direct(M, nw_std):
    spec = ext_op_spec(M, nw_std)
    direct = analyze_cdr(spec, solver="direct")
    analysis = analyze_cdr(spec, solver="multigrid", tol=TOL)
    assert analysis.solver_result.converged
    assert analysis.solver_result.recombinations > 0
    assert analysis.ber == pytest.approx(direct.ber, rel=1e-8, abs=0.0)


def test_backends_bitwise_equal():
    results = [
        analyze_cdr(ext_op_spec(128), solver="multigrid", tol=TOL,
                    backend=backend).solver_result
        for backend in ("assembled", "matrix-free")
    ]
    assert results[0].recombinations == results[1].recombinations > 0
    assert np.array_equal(results[0].distribution, results[1].distribution)


@pytest.mark.parametrize("max_cycles", [3, 6, 200])
def test_returned_vector_and_flags_are_true(m128_model, max_cycles):
    res = _solve(m128_model, max_cycles=max_cycles)
    x = res.distribution
    assert np.all(x >= 0.0)
    assert x.sum() == pytest.approx(1.0, abs=1e-14)
    true_residual = operator_residual(as_operator(m128_model.chain.P), x)
    assert res.residual == true_residual
    assert res.residual_history[-1] == true_residual
    assert res.converged == (true_residual < TOL)
    assert res.converged == (max_cycles == 200)


def test_every_reported_residual_is_the_iterates(m128_model):
    op = as_operator(m128_model.chain.P)
    seen = []
    res = _solve(
        m128_model,
        on_iterate=lambda cycle, x: seen.append(operator_residual(op, x)),
    )
    assert res.recombinations > 0
    assert seen == res.residual_history


def test_w_cycle_keeps_its_method(m128_model):
    res = _solve(m128_model, cycle_type="W")
    assert res.method == "multigrid-W"
    assert res.converged


def test_resumed_from_checkpoint_converges(m128_model, tmp_path):
    path = str(tmp_path / "mg.json")
    ckpt = SolverCheckpointer(path, interval=2, method="multigrid")
    first = _solve(m128_model, max_cycles=5, on_iterate=ckpt)
    assert not first.converged
    saved = load_solver_checkpoint(path)
    assert saved.iteration == 4
    resumed = _solve(m128_model, x0=saved.vector)
    fresh = _solve(m128_model)
    assert resumed.converged
    assert resumed.iterations < fresh.iterations
    np.testing.assert_allclose(
        resumed.distribution, fresh.distribution, rtol=1e-6, atol=1e-16
    )


def test_window_is_bounded_and_per_solve(m128_model, monkeypatch):
    windows = []
    init = multigrid._Recombiner.__init__

    def recording_init(self, op):
        init(self, op)
        windows.append(self._window)

    monkeypatch.setattr(multigrid._Recombiner, "__init__", recording_init)
    _solve(m128_model)
    _solve(m128_model)
    assert len(windows) == 2 and windows[0] is not windows[1]
    assert all(w.maxlen == multigrid.RECOMBINE_WINDOW for w in windows)
    assert 0 < len(windows[0]) <= multigrid.RECOMBINE_WINDOW
