"""ABL-COARSE -- ablation of the multigrid coarsening strategy.

"The multi-level algorithm can achieve much better performance if the
special structure in the MC ... is exploited to develop a coarsening or
lumping strategy.  For the model of the clock recovery circuit ... we
employed a coarsening strategy which lumps the two states corresponding to
consecutive discretized phase error values."

Compared configurations on the same stiff CDR chain:

* ``grid pairing``  -- the library's structured strategy
  (``model.multigrid_strategy()``): every level halves the data, counter
  and phase axes of the ``(d, c, m)`` grid;
* ``phase pairing`` -- the paper's strategy, built here from the model
  layout: every level halves the phase axis only;
* ``algebraic``     -- generic strongest-coupling pairwise aggregation
  (structure-blind baseline);
* ``none``          -- no coarse correction at all (pure weighted-Jacobi,
  i.e. what the multigrid degenerates to without a hierarchy).

Shape claims checked: every hierarchy converges to the same answer and
beats no-coarsening by a wide margin in iteration count.  Findings of
this reproduction worth reporting: on drift-dominated CDR chains the
coupling-aware algebraic pairing needs the fewest V-cycles (it follows
the strong counter/data couplings), but it pays a far larger per-cycle
setup cost -- it re-derives a partition from the matrix at every level of
every cycle, whereas the structured hierarchies are precomputed once from
the model layout.  Pairing the counter and data axes as well as the phase
axis needs no more cycles than phase pairing alone, on a hierarchy whose
levels shrink 4-8x instead of 2x.
"""

import numpy as np
import pytest

from repro import CDRSpec
from repro.core import format_table
from repro.markov import (
    Partition,
    pairing_hierarchy,
    solve_jacobi,
    solve_multigrid,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def model():
    return CDRSpec(
        n_phase_points=256,
        n_clock_phases=16,
        counter_length=16,
        max_run_length=2,
        nw_std=0.01,
        nw_atoms=9,
        nr_max=0.002,
        nr_mean=0.0005,
    ).build_model()


def phase_pairing(model, coarsest_phase_points=8):
    """The paper's hierarchy: lump consecutive phase points, keep (d, c)."""
    blocks = model.n_data_states * model.n_counter_states
    M = model.n_phase_points
    partitions = []
    while M > coarsest_phase_points:
        Mc = (M + 1) // 2
        i = np.arange(blocks * M)
        partitions.append(Partition((i // M) * Mc + (i % M) // 2))
        M = Mc
    return pairing_hierarchy(partitions)


def run_structured(model, strategy):
    return solve_multigrid(
        model.chain.P, strategy=strategy,
        tol=TOL, nu_pre=8, nu_post=8, max_cycles=500,
    )


def run_grid_paired(model):
    return run_structured(model, model.multigrid_strategy())


def run_phase_paired(model):
    return run_structured(model, phase_pairing(model))


def run_algebraic(model):
    # Default strategy: pairwise strongest-coupling aggregation per level.
    return solve_multigrid(
        model.chain.P, strategy=None,
        tol=TOL, nu_pre=8, nu_post=8, max_cycles=500,
    )


def run_unaided(model):
    # No hierarchy at all: the smoother alone (equal total sweep budget
    # would be unfair to quantify exactly; report its own convergence).
    return solve_jacobi(model.chain.P, tol=TOL, max_iter=500_000)


class TestCoarseningAblation:
    def test_bench_grid_pairing(self, benchmark, model):
        res = benchmark.pedantic(
            lambda: run_grid_paired(model), rounds=1, iterations=1
        )
        benchmark.extra_info["cycles"] = res.iterations
        assert res.converged

    def test_bench_phase_pairing(self, benchmark, model):
        res = benchmark.pedantic(
            lambda: run_phase_paired(model), rounds=1, iterations=1
        )
        benchmark.extra_info["cycles"] = res.iterations
        assert res.converged

    def test_bench_algebraic(self, benchmark, model):
        res = benchmark.pedantic(lambda: run_algebraic(model), rounds=1, iterations=1)
        benchmark.extra_info["cycles"] = res.iterations
        assert res.converged

    def test_ablation_table(self, model):
        grid = run_grid_paired(model)
        paired = run_phase_paired(model)
        algebraic = run_algebraic(model)
        unaided = run_unaided(model)
        rows = [
            {"strategy": "grid pairing", "iterations": grid.iterations,
             "residual": grid.residual, "time_s": grid.solve_time},
            {"strategy": "phase pairing (paper)", "iterations": paired.iterations,
             "residual": paired.residual, "time_s": paired.solve_time},
            {"strategy": "algebraic pairing", "iterations": algebraic.iterations,
             "residual": algebraic.residual, "time_s": algebraic.solve_time},
            {"strategy": "no coarsening (jacobi)", "iterations": unaided.iterations,
             "residual": unaided.residual, "time_s": unaided.solve_time},
        ]
        print("\n[ABL-COARSE] coarsening-strategy ablation "
              f"({model.n_states} states)")
        print(format_table(rows))

        assert grid.converged and paired.converged and algebraic.converged
        np.testing.assert_allclose(
            paired.distribution, algebraic.distribution, atol=1e-6
        )
        np.testing.assert_allclose(
            grid.distribution, algebraic.distribution, atol=1e-6
        )
        # The hierarchy must reduce the iteration count by at least an
        # order of magnitude over the bare smoother (a V-cycle costs
        # roughly 2 * nu * 2 = 32 fine-sweep equivalents here, so this is
        # also a genuine total-work win on stiff problems).
        assert unaided.iterations > 10 * grid.iterations
        assert unaided.iterations > 10 * paired.iterations
        assert unaided.iterations > 10 * algebraic.iterations
        # Pairing every axis keeps the cycle count of phase pairing.
        assert grid.iterations <= paired.iterations
        # Cycle counts may differ (see module docstring) but each must be
        # true multigrid: a small number of cycles, not smoother-like
        # iteration counts.
        assert grid.iterations < 100
        assert paired.iterations < 100
        assert algebraic.iterations < 100
