"""EXT-OP -- extension experiment: matrix-free vs. assembled operator.

The paper: "For now, we use explicit sparse storage ... For solving more
complex models, we are looking into using hierarchical generalized
Kronecker-algebra ... representations."  The matrix-free
:class:`repro.cdr.operator.CDRTransitionOperator` realizes that direction
for this model class.

Shape claims checked:

* the operator's state is a *constant-size* term list (independent of the
  phase-grid resolution), versus the assembled matrix's O(n) nonzeros;
* matrix-free and assembled applications agree to machine precision;
* both application costs scale linearly, so the matrix-free route trades
  no asymptotic time for its O(1) descriptor memory.

The end-to-end sweep (``TestEndToEndSolve``) additionally runs the full
BER pipeline -- spec -> backend registry -> multigrid -> measures -- once
per (backend, grid size) pair in a *fresh subprocess*, so ``ru_maxrss``
is a faithful per-configuration peak.  (Tracked timings of the two
backends come from the end-to-end benchmark, ``benchmarks/e2e``, whose
``point-m512``/``point-m2048`` workloads solve this design on both.)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cdr import CDRTransitionOperator, PhaseGrid, build_cdr_chain
from repro.core import format_table
from repro.noise import DiscreteDistribution, eye_opening_noise


def params(M):
    grid = PhaseGrid(M)
    return dict(
        grid=grid,
        nw=eye_opening_noise(0.04, n_atoms=9),
        nr=DiscreteDistribution(
            [-grid.step, 0.0, grid.step], [0.2, 0.5, 0.3]
        ),
        counter_length=8,
        phase_step_units=max(1, M // 16),
        max_run_length=2,
    )


@pytest.fixture(scope="module")
def size_sweep():
    rows = []
    for M in (128, 512, 2048):
        p = params(M)
        model = build_cdr_chain(**p)
        op = CDRTransitionOperator(**p)
        x = np.full(op.n, 1.0 / op.n)
        # agreement check rides along
        agree = float(np.abs(op.rmatvec(x) - model.chain.P.T.dot(x)).max())
        rows.append(
            {
                "M": M,
                "n_states": op.n,
                "assembled_nnz": model.chain.nnz,
                "operator_terms": len(op._terms),
                "max_abs_diff": agree,
            }
        )
    return rows


class TestMatrixFreeOperator:
    def test_bench_matrix_free_apply(self, benchmark):
        p = params(1024)
        op = CDRTransitionOperator(**p)
        x = np.full(op.n, 1.0 / op.n)
        benchmark(op.rmatvec, x)

    def test_bench_assembled_apply(self, benchmark):
        p = params(1024)
        model = build_cdr_chain(**p)
        PT = model.chain.P.T.tocsr()
        x = np.full(model.n_states, 1.0 / model.n_states)
        benchmark(PT.dot, x)

    def test_descriptor_size_constant_in_grid(self, size_sweep):
        print("\n[EXT-OP] matrix-free descriptor vs assembled matrix")
        print(format_table(size_sweep))
        terms = [r["operator_terms"] for r in size_sweep]
        assert terms[0] == terms[1] == terms[2]
        nnz = [r["assembled_nnz"] for r in size_sweep]
        assert nnz[2] > 10 * nnz[0]

    def test_agreement_at_all_sizes(self, size_sweep):
        for row in size_sweep:
            assert row["max_abs_diff"] < 1e-13, row


_CHILD = """\
import json, resource, sys, time
from repro.core.analyzer import analyze_cdr
from repro.core.spec import CDRSpec

backend, M = sys.argv[1], int(sys.argv[2])
spec = CDRSpec(n_phase_points=M, n_clock_phases=16, counter_length=8,
               max_run_length=2, nw_std=0.1, nw_atoms=9)
t0 = time.perf_counter()
res = analyze_cdr(spec, backend=backend, solver="multigrid", tol=1e-10)
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform != "darwin":
    rss *= 1024  # kibibytes on Linux
print(json.dumps({
    "backend": backend,
    "M": M,
    "n_states": res.n_states,
    "wall_s": round(wall, 3),
    "peak_rss_mb": round(rss / 1e6, 1),
    "ber": res.ber,
    "iterations": res.solver_result.iterations,
    "converged": res.solver_result.converged,
}))
"""


def _run_child(backend, M):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, backend, str(M)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def solve_sweep():
    rows = []
    for M in (128, 512, 2048):
        for backend in ("assembled", "matrix-free"):
            rows.append(_run_child(backend, M))
    return rows


class TestEndToEndSolve:
    """[EXT-OP] assembled vs matrix-free multigrid, end to end."""

    def test_bench_end_to_end_sweep(self, solve_sweep):
        print("\n[EXT-OP] assembled vs matrix-free multigrid (per-process)")
        print(format_table(solve_sweep))
        for row in solve_sweep:
            assert row["converged"], row

    def test_backends_agree_at_every_size(self, solve_sweep):
        by_m = {}
        for row in solve_sweep:
            by_m.setdefault(row["M"], {})[row["backend"]] = row
        for M, pair in by_m.items():
            a, mf = pair["assembled"], pair["matrix-free"]
            assert abs(mf["ber"] - a["ber"]) <= 1e-6 * a["ber"], M

    def test_matrix_free_memory_no_worse_at_scale(self, solve_sweep):
        at_largest = {
            r["backend"]: r for r in solve_sweep if r["M"] == 2048
        }
        # The matrix-free run never assembles the fine TPM; allow noise
        # from allocator behaviour but its peak must not exceed the
        # assembled run's by more than 10%.
        assert (
            at_largest["matrix-free"]["peak_rss_mb"]
            <= 1.1 * at_largest["assembled"]["peak_rss_mb"]
        ), at_largest
