#!/usr/bin/env python
"""Stationary-solver shoot-out on one CDR chain.

Builds a moderately stiff CDR Markov chain and runs every stationary
solver in the library on it -- power iteration, weighted Jacobi,
Gauss-Seidel, preconditioned GMRES, sparse LU, two-level
aggregation/disaggregation, and the paper's multi-level (multigrid)
aggregation with grid-pairing coarsening -- printing iterations,
residuals, and wall-clock times side by side.

Run:  python examples/solver_playground.py
"""

import numpy as np

from repro import CDRSpec
from repro.cdr.model import grid_pairing_partitions
from repro.core import format_table
from repro.markov import (
    solve_aggregation_disaggregation,
    solve_direct,
    solve_gauss_seidel,
    solve_jacobi,
    solve_krylov,
    solve_multigrid,
    solve_power,
)


def main() -> None:
    spec = CDRSpec(
        n_phase_points=256,
        n_clock_phases=16,
        counter_length=16,
        max_run_length=2,
        nw_std=0.01,
        nr_max=0.002,
        nr_mean=0.0005,
    )
    model = spec.build_model()
    P = model.chain.P
    shape = (model.n_data_states, model.n_counter_states, model.n_phase_points)
    print(f"{model!r}\n")

    tol = 1e-10
    results = [
        solve_direct(P),
        solve_power(P, tol=tol, max_iter=100_000),
        solve_jacobi(P, tol=tol, max_iter=100_000),
        solve_gauss_seidel(P, tol=tol, max_iter=20_000),
        solve_krylov(P, tol=tol),
        solve_aggregation_disaggregation(
            P, grid_pairing_partitions(shape)[0], tol=tol, max_iter=2_000
        ),
        solve_multigrid(
            P, strategy=model.multigrid_strategy(), tol=tol,
            nu_pre=8, nu_post=8, max_cycles=400,
        ),
    ]

    reference = results[0].distribution
    rows = []
    for res in results:
        rows.append(
            {
                "method": res.method,
                "iterations": res.iterations,
                "residual": res.residual,
                "time_s": res.solve_time,
                "err_vs_direct": float(np.abs(res.distribution - reference).sum()),
            }
        )
    print(format_table(rows))
    print()
    print("Iteration units differ (sweeps / matvecs / V-cycles); the paper's")
    print("point is the multigrid cycle count stays nearly flat as the model")
    print("grows -- see benchmarks/bench_solver_comparison.py for the sweep.")


if __name__ == "__main__":
    main()
