"""The assembled CDR Markov chain.

This materializes the paper's "very large but highly structured" transition
probability matrix for the digital phase-selection loop on the product
state space

    (data-source hidden state d)  x  (counter state c)  x  (phase index m)

with global index ``((d * C) + c) * M + m``.  The chain is enumerated in
exactly one place, :class:`~repro.cdr.operator.CDRTransitionOperator`:
:func:`build_cdr_chain` compiles that operator and takes its coalesced
``RollPlan`` to CSR, so the assembled and matrix-free backends hold the
same matrix bit for bit (a test invariant), not merely up to rounding.

A parallel sparse *slip-flux matrix* records the probability of every
transition that wraps the phase error across the ``+-1/2`` UI boundary --
the cycle-slip events whose mean spacing the paper computes "between
certain sets of MC states".  It comes from the operator's term list
through the same wrap rule as the matrix-free ``slip_row_sums``.

The multigrid hierarchy of the product grid is built in one place too,
:func:`grid_pairing_partitions`, which every CDR model's
``multigrid_strategy()`` calls with its own grid shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cdr.loop_filter import counter_state_count
from repro.cdr.operator import CDRTransitionOperator
from repro.cdr.phase_error import PhaseGrid
from repro.fsm.stochastic import MarkovSource
from repro.markov.chain import MarkovChain
from repro.markov.lumping import Partition
from repro.markov.multigrid import CoarseningStrategy, pairing_hierarchy
from repro.noise.distributions import DiscreteDistribution
from repro.obs import get_registry, span

__all__ = ["CDRChainModel", "build_cdr_chain", "grid_pairing_partitions"]


def grid_pairing_partitions(
    shape: Sequence[int], coarsest_phase_points: int = 8
) -> List[Partition]:
    """The multigrid hierarchy of a CDR state grid: pair along every axis.

    ``shape`` is the row-major state grid with the phase axis last:
    ``(D, C, M)`` for the loop, ``(D, H, C, M)`` for the modulated model.
    Each level halves (ceil) every non-phase axis still larger than 1 and
    the phase axis while it exceeds ``coarsest_phase_points``; a coarse
    state lumps the up-to ``2^k`` fine states whose coordinates agree
    after halving, and an odd axis leaves its last index a singleton.  The
    hierarchy ends when no axis can shrink.

    This extends the paper's lumping of "the two states corresponding to
    consecutive discretized phase error values" to the data and counter
    coordinates, which phase pairing never coarsens.  At ``(2, 15, 2048)``
    the first four levels hold 61,440, 8,192, 2,048 and 512 states (the
    solver's default coarsest size); phase pairing alone needs eight
    levels to get from 61,440 to 480.  Every CDR backend coarsens through
    this one function, so they coarsen identically.
    """
    if coarsest_phase_points < 2:
        raise ValueError("coarsest_phase_points must be at least 2")
    shape = tuple(int(a) for a in shape)
    if not shape or min(shape) < 1:
        raise ValueError("shape must be a non-empty tuple of positive sizes")
    partitions = []
    while True:
        coarse = tuple((a + 1) // 2 for a in shape[:-1])
        M = shape[-1]
        coarse += ((M + 1) // 2 if M > coarsest_phase_points else M,)
        if coarse == shape:
            return partitions
        # Row-major coarse index of every fine state, one axis at a time.
        assign = np.zeros(1, dtype=np.int64)
        for a, ac in zip(shape, coarse):
            coord = np.arange(a) // (2 if ac < a else 1)
            assign = (assign[:, None] * ac + coord).ravel()
        partitions.append(Partition(assign))
        shape = coarse


@dataclass
class CDRChainModel:
    """A compiled CDR Markov-chain model and its structural metadata.

    Attributes
    ----------
    chain:
        The product Markov chain (unlabeled; use the layout helpers).
    slip_matrix:
        Sparse matrix ``E <= P`` of transition probabilities that wrap the
        phase across the UI boundary (cycle slips).
    grid:
        The phase-error grid.
    nw:
        The eye-opening noise distribution (UI) used for the detector
        decision masses and later for BER tail integration.
    nr_steps:
        The drift noise, quantized to whole grid steps.
    data_source:
        The data-statistics Markov source.
    counter_length:
        Loop-filter counter length ``N``.
    phase_step_units:
        The loop correction step ``G`` in grid units.
    form_time:
        Wall-clock seconds spent assembling the matrix (the paper's
        "Matrixformtime").
    """

    chain: MarkovChain
    slip_matrix: sp.csr_matrix
    grid: PhaseGrid
    nw: DiscreteDistribution
    nr_steps: DiscreteDistribution
    data_source: MarkovSource
    counter_length: int
    phase_step_units: int
    form_time: float
    sign_masses: Dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    @property
    def n_data_states(self) -> int:
        return self.data_source.n_states

    @property
    def n_counter_states(self) -> int:
        return counter_state_count(self.counter_length)

    @property
    def n_phase_points(self) -> int:
        return self.grid.n_points

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    def state_index(self, data_state: int, counter_value: int, phase_index: int) -> int:
        """Global index of ``(d, counter value, m)``.

        ``counter_value`` is the signed count in ``[-(N-1), N-1]``.
        """
        N = self.counter_length
        c = counter_value + (N - 1)
        D, C, M = self.n_data_states, self.n_counter_states, self.n_phase_points
        if not (0 <= data_state < D and 0 <= c < C and 0 <= phase_index < M):
            raise ValueError("state coordinates out of range")
        return (data_state * C + c) * M + phase_index

    def state_of_index(self, index: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`state_index`: ``(d, counter value, m)``."""
        C, M = self.n_counter_states, self.n_phase_points
        if not 0 <= index < self.n_states:
            raise ValueError("index out of range")
        m = index % M
        dc = index // M
        return dc // C, (dc % C) - (self.counter_length - 1), m

    # ------------------------------------------------------------------ #
    # marginals
    # ------------------------------------------------------------------ #

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal distribution of the phase index under ``distribution``."""
        distribution = np.asarray(distribution, dtype=float)
        if distribution.shape != (self.n_states,):
            raise ValueError("distribution has wrong size")
        return distribution.reshape(-1, self.n_phase_points).sum(axis=0)

    def counter_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal distribution over counter values ``-(N-1) .. N-1``."""
        distribution = np.asarray(distribution, dtype=float)
        D, C, M = self.n_data_states, self.n_counter_states, self.n_phase_points
        return distribution.reshape(D, C, M).sum(axis=(0, 2))

    def data_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal distribution over data-source hidden states."""
        distribution = np.asarray(distribution, dtype=float)
        D = self.n_data_states
        return distribution.reshape(D, -1).sum(axis=1)

    def mean_phase(self, distribution: np.ndarray) -> float:
        """Mean phase error (UI) under ``distribution``."""
        return float(np.dot(self.phase_marginal(distribution), self.grid.values))

    def phase_values_per_state(self) -> np.ndarray:
        """Phase value (UI) of every global state (for autocorrelation)."""
        D, C = self.n_data_states, self.n_counter_states
        return np.tile(self.grid.values, D * C)

    # ------------------------------------------------------------------ #
    # multigrid support
    # ------------------------------------------------------------------ #

    def multigrid_strategy(self, coarsest_phase_points: int = 8) -> CoarseningStrategy:
        """The multigrid coarsening: :func:`grid_pairing_partitions` of
        the ``(d, c, m)`` grid, as a ready-to-use strategy."""
        shape = (self.n_data_states, self.n_counter_states, self.n_phase_points)
        return pairing_hierarchy(
            grid_pairing_partitions(shape, coarsest_phase_points)
        )

    # ------------------------------------------------------------------ #
    # structure report (Figure 3)
    # ------------------------------------------------------------------ #

    def structure_report(self) -> Dict[str, float]:
        """Summary statistics of the TPM's nonzero pattern (paper Fig. 3).

        The pattern is compositional: the data FSM *always* moves (run
        counters never self-loop), the counter coordinate is preserved on
        NULL decisions, and the phase coordinate moves by at most
        ``G + max|n_r|`` grid steps (banded sub-blocks, modulo the wrap).
        """
        P = self.chain.P
        coo = P.tocoo()
        M = self.n_phase_points
        C = self.n_counter_states
        counter_row = (coo.row // M) % C
        counter_col = (coo.col // M) % C
        same_counter = float(np.mean(counter_row == counter_col)) if coo.nnz else 0.0
        dphi = np.abs((coo.col % M).astype(np.int64) - (coo.row % M))
        dphi = np.minimum(dphi, M - dphi)  # wrap-aware phase distance
        max_phase_move = int(dphi.max()) if coo.nnz else 0
        return {
            "n_states": float(self.n_states),
            "nnz": float(P.nnz),
            "nnz_per_row": float(P.nnz) / self.n_states,
            "density": float(P.nnz) / self.n_states ** 2,
            "fraction_counter_preserving": same_counter,
            "max_phase_move_steps": float(max_phase_move),
            "form_time_s": self.form_time,
        }

    def __repr__(self) -> str:
        return (
            f"CDRChainModel(states={self.n_states}, "
            f"D={self.n_data_states}, C={self.n_counter_states}, "
            f"M={self.n_phase_points}, nnz={self.chain.nnz})"
        )


def build_cdr_chain(
    grid: PhaseGrid,
    nw: DiscreteDistribution,
    nr: DiscreteDistribution,
    counter_length: int,
    phase_step_units: int,
    data_source: Optional[MarkovSource] = None,
    transition_density: float = 0.5,
    max_run_length: int = 3,
) -> CDRChainModel:
    """Assemble the CDR phase-selection-loop Markov chain.

    Parameters
    ----------
    grid:
        Phase-error discretization (``M`` points over one UI).
    nw:
        Eye-opening jitter distribution (UI); enters only through the
        phase-detector decision.
    nr:
        Drift noise distribution (UI per symbol); quantized to whole grid
        steps with mean-preserving splitting.
    counter_length:
        Loop-filter up/down counter length ``N`` (the paper's "COUNTER").
    phase_step_units:
        Loop correction step ``G`` in grid units; ``G * grid.step`` is the
        phase-select increment in UI (one VCO phase tap).
    data_source:
        Transition-indicator Markov source; when omitted, a run-length-
        limited source with the given ``transition_density`` and
        ``max_run_length`` is used.
    """
    with span("cdr.build_tpm") as build_span:
        start = time.perf_counter()
        op = CDRTransitionOperator(
            grid, nw, nr, counter_length, phase_step_units,
            data_source=data_source,
            transition_density=transition_density,
            max_run_length=max_run_length,
        )
        P = op.to_csr()
        E = op.slip_matrix()
        # Stochastic by construction (decision masses and branch/drift
        # probabilities each sum to one); skipping the row rescale keeps
        # ``chain.P`` bit-identical to the matrix-free backend's matrix.
        chain = MarkovChain(P, validate=False)
        # Structure identity for hierarchy caching (repro.markov.context):
        # the operator's roll topology, every noise probability excluded,
        # so sweep points differing only in noise rates share one digest
        # even though near-zero probabilities shift the CSR sparsity
        # pattern.  Tagged so the assembled and matrix-free backends never
        # share a cached hierarchy.
        chain.set_structure_token(("cdr-assembled", op.structure_token()))
        form_time = time.perf_counter() - start
        memory_bytes = int(
            P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
            + E.data.nbytes + E.indices.nbytes + E.indptr.nbytes
        )
        build_span.set_attributes(
            n_states=op.n,
            nnz=int(P.nnz),
            memory_bytes=memory_bytes,
            n_data_states=op.D,
            n_counter_states=op.C,
            n_phase_points=op.M,
        )
    registry = get_registry()
    registry.counter(
        "repro_tpm_builds_total", "CDR transition matrices assembled"
    ).inc()
    registry.histogram(
        "repro_tpm_build_seconds", "Wall time of CDR TPM assembly"
    ).observe(form_time)
    registry.gauge(
        "repro_tpm_nnz", "Nonzeros of the last assembled CDR TPM"
    ).set(int(P.nnz))
    return CDRChainModel(
        chain=chain,
        slip_matrix=E,
        grid=grid,
        nw=nw,
        nr_steps=op.nr_steps,
        data_source=op.data_source,
        counter_length=op.counter_length,
        phase_step_units=op.phase_step_units,
        form_time=form_time,
        sign_masses=op._masses,
    )
