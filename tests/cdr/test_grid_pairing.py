"""Grid pairing: the one multigrid hierarchy of every CDR chain.

Each level halves every axis of the ``(d, [h,] c, m)`` state grid that is
still larger than 1, and the phase axis while it exceeds
``coarsest_phase_points``.  The assembled, matrix-free and modulated
models all coarsen through :func:`grid_pairing_partitions`; the solves
keep the V-cycle count and the BER tail of the phase-only hierarchy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdr import (
    PhaseGrid,
    build_modulated_cdr_chain,
    sinusoidal_drift_source,
)
from repro.cdr.model import grid_pairing_partitions
from repro.core.analyzer import analyze_cdr
from repro.core.spec import CDRSpec
from repro.markov import build_hierarchy, get_backend
from repro.noise import DiscreteDistribution, eye_opening_noise


def ext_op_spec(M: int, nw_std: float) -> CDRSpec:
    return CDRSpec(
        n_phase_points=M, n_clock_phases=16, counter_length=8,
        max_run_length=2, nw_std=nw_std, nw_atoms=9,
    )


def stiff_spec(M: int, nw_std: float) -> CDRSpec:
    return CDRSpec(
        n_phase_points=M, n_clock_phases=16, counter_length=16,
        max_run_length=2, nw_std=nw_std, nw_atoms=9,
        nr_max=0.002, nr_mean=0.0005,
    )


def partitions_of(model):
    """The partitions ``model.multigrid_strategy()`` hands the solver."""
    return build_hierarchy(
        model.chain, strategy=model.multigrid_strategy(), coarsest_size=1
    ).partitions


class TestLevels:
    def test_ext_op_m2048_levels(self):
        parts = grid_pairing_partitions((2, 15, 2048))
        assert parts[0].n_states == 61_440
        assert [p.n_blocks for p in parts[:3]] == [8192, 2048, 512]
        # Then only the phase axis is left, halved down to 8 points.
        assert [p.n_blocks for p in parts[3:]] == [128, 64, 32, 16, 8]

    def test_levels_chain(self):
        parts = grid_pairing_partitions((3, 5, 40), coarsest_phase_points=4)
        for fine, coarse in zip(parts, parts[1:]):
            assert coarse.n_states == fine.n_blocks

    def test_odd_axis_leaves_singletons(self):
        D, C, M = 2, 15, 16
        part = grid_pairing_partitions((D, C, M))[0]
        sizes = np.bincount(part.block_of).reshape(1, 8, 8)
        # Counter index 14 has no partner: its blocks hold d x m = 4 states.
        assert np.all(sizes[:, :7] == 8)
        assert np.all(sizes[:, 7] == 4)
        assert part.n_blocks == 1 * 8 * 8

    def test_pairs_are_grid_neighbours(self):
        D, C, M = 2, 4, 16
        block = grid_pairing_partitions((D, C, M))[0].block_of.reshape(D, C, M)
        _, c, m = np.meshgrid(
            np.arange(D), np.arange(C), np.arange(M), indexing="ij"
        )
        np.testing.assert_array_equal(block, (c // 2) * (M // 2) + m // 2)

    def test_phase_stops_at_coarsest_points(self):
        parts = grid_pairing_partitions((1, 1, 64), coarsest_phase_points=8)
        assert [p.n_blocks for p in parts] == [32, 16, 8]

    def test_singleton_axes_terminate(self):
        assert grid_pairing_partitions((1, 1, 8)) == []
        parts = grid_pairing_partitions((1, 1, 1, 3), coarsest_phase_points=2)
        assert [p.n_blocks for p in parts] == [2]

    def test_counter_length_one_terminates(self):
        spec = CDRSpec(
            n_phase_points=32, n_clock_phases=16, counter_length=1,
            max_run_length=2, nw_std=0.08, nw_atoms=7,
        )
        model = spec.build_model()
        assert model.n_counter_states == 1
        parts = partitions_of(model)
        assert parts[-1].n_blocks == 8
        assert [p.n_blocks for p in parts] == [16, 8]

    def test_validation(self):
        with pytest.raises(ValueError, match="coarsest_phase_points"):
            grid_pairing_partitions((2, 3, 32), coarsest_phase_points=1)
        with pytest.raises(ValueError, match="shape"):
            grid_pairing_partitions((2, 0, 32))
        with pytest.raises(ValueError, match="shape"):
            grid_pairing_partitions(())


class TestOnePath:
    def test_assembled_and_matrix_free_partitions_equal(self):
        spec = CDRSpec(
            n_phase_points=64, n_clock_phases=16, counter_length=3,
            max_run_length=2, nw_std=0.08, nw_atoms=7,
        )
        assembled = get_backend("assembled").build(spec)
        mf = get_backend("matrix-free").build(spec)
        ours, theirs = partitions_of(assembled), partitions_of(mf)
        assert len(ours) == len(theirs) > 1
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a.block_of, b.block_of)

    def test_modulated_model_pairs_drift_axis(self):
        grid = PhaseGrid(32)
        model = build_modulated_cdr_chain(
            grid=grid,
            nw=eye_opening_noise(0.06, n_atoms=7),
            nr=DiscreteDistribution(
                [-grid.step, 0.0, grid.step], [0.25, 0.5, 0.25]
            ),
            drift_source=sinusoidal_drift_source("sj", 0.1, 8),
            counter_length=2,
            phase_step_units=1,
        )
        shape = (
            model.n_data_states, model.n_drift_states,
            model.n_counter_states, model.n_phase_points,
        )
        assert shape[1] == 8
        parts = partitions_of(model)
        expected = grid_pairing_partitions(shape)
        assert len(parts) == len(expected)
        for a, b in zip(parts, expected):
            np.testing.assert_array_equal(a.block_of, b.block_of)
        # The drift axis halves with the others: 8 -> 4 -> 2 -> 1.
        H = shape[1]
        block = parts[0].block_of.reshape(shape)
        assert np.unique(block[0, :, 0, 0]).size == H // 2


class TestSolves:
    def test_ext_op_m2048_cycles(self):
        analysis = analyze_cdr(
            ext_op_spec(2048, 0.08), solver="multigrid", backend="matrix-free"
        )
        result = analysis.solver_result
        assert result.converged
        assert result.iterations <= 15

    def test_stiff_tail_matches_direct(self):
        spec = stiff_spec(128, 0.06)
        direct = analyze_cdr(spec, solver="direct")
        analysis = analyze_cdr(spec, solver="multigrid")
        assert analysis.solver_result.converged
        assert analysis.ber == pytest.approx(direct.ber, rel=1e-8, abs=0.0)
