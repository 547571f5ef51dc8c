"""Markov-modulated drift: correlated and sinusoidal jitter.

The base model treats ``n_r`` as white.  The paper notes that real
specifications also include *correlated* jitter, and that "one can even
mimic deterministic sinusoidally varying jitter by assigning the amplitude
distribution of n_r appropriately".  The amplitude-distribution trick is
exact only when the loop cannot track the sinusoid; this module implements
the general mechanism instead: the drift is emitted by a *hidden Markov
state* (a function on a Markov chain state-space, exactly the paper's
modeling primitive), so the loop's tracking of slow modulation is captured
faithfully.

The flagship source is :func:`sinusoidal_drift_source`: a hidden ring of
``period_symbols`` states rotating (almost) deterministically, each
emitting the per-symbol phase increment of a sinusoid of the given
amplitude.  Slow rings (long periods) produce jitter the loop tracks --
little BER penalty; fast rings defeat the loop -- the classic
jitter-tolerance-vs-frequency corner, which the extension benchmark
regenerates.

State layout: global index ``(((d * H) + h) * C + c) * M + m`` with ``h``
the hidden drift state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.cdr.data_source import transition_run_length_source
from repro.cdr.loop_filter import counter_state_count
from repro.cdr.model import grid_pairing_partitions
from repro.cdr.operator import _sign_masses
from repro.cdr.phase_error import PhaseGrid
from repro.fsm.stochastic import MarkovSource
from repro.markov.chain import MarkovChain
from repro.obs import get_registry, span
from repro.markov.multigrid import CoarseningStrategy, pairing_hierarchy
from repro.noise.distributions import DiscreteDistribution

__all__ = [
    "ModulatedCDRModel",
    "build_modulated_cdr_chain",
    "sinusoidal_drift_source",
    "bursty_drift_source",
]


def sinusoidal_drift_source(
    name: str,
    amplitude_ui: float,
    period_symbols: int,
    dwell_jitter: float = 0.02,
) -> MarkovSource:
    """Sinusoidal jitter as a rotating hidden state.

    Hidden state ``h`` advances ``h -> h+1 (mod period)`` each symbol
    (with probability ``1 - dwell_jitter``; the small dwell probability
    models the sinusoid's frequency not being locked to the symbol rate
    and usefully breaks the exact periodicity of the product chain).
    State ``h`` emits the phase increment
    ``A sin(2 pi (h+1)/T) - A sin(2 pi h/T)`` so the accumulated emission
    traces the sinusoid of amplitude ``A``.
    """
    if amplitude_ui < 0:
        raise ValueError("amplitude_ui must be non-negative")
    if period_symbols < 2:
        raise ValueError("period_symbols must be at least 2")
    if not 0.0 <= dwell_jitter < 1.0:
        raise ValueError("dwell_jitter must be in [0, 1)")
    T = int(period_symbols)
    P = np.zeros((T, T))
    for h in range(T):
        P[h, (h + 1) % T] = 1.0 - dwell_jitter
        P[h, h] = dwell_jitter
    phases = 2.0 * math.pi * np.arange(T + 1) / T
    wave = amplitude_ui * np.sin(phases)
    increments = np.diff(wave)
    return MarkovSource(name, MarkovChain(P), emit=[float(v) for v in increments])


def bursty_drift_source(
    name: str,
    quiet_drift_ui: float,
    burst_drift_ui: float,
    p_enter_burst: float,
    p_exit_burst: float,
) -> MarkovSource:
    """Two-state (Gilbert-style) drift: quiet vs. burst drift rates.

    Models interference that comes and goes -- e.g. an aggressor block on
    the same die powering up, the scenario of the paper's motivating
    multiplexer-chip anecdote.
    """
    for p in (p_enter_burst, p_exit_burst):
        if not 0.0 < p < 1.0:
            raise ValueError("transition probabilities must be in (0, 1)")
    P = np.array(
        [
            [1.0 - p_enter_burst, p_enter_burst],
            [p_exit_burst, 1.0 - p_exit_burst],
        ]
    )
    return MarkovSource(
        name, MarkovChain(P), emit=[float(quiet_drift_ui), float(burst_drift_ui)]
    )


@dataclass
class ModulatedCDRModel:
    """Compiled CDR chain with a hidden drift-modulation state."""

    chain: MarkovChain
    slip_matrix: sp.csr_matrix
    grid: PhaseGrid
    nw: DiscreteDistribution
    nr_steps: DiscreteDistribution
    data_source: MarkovSource
    drift_source: MarkovSource
    counter_length: int
    phase_step_units: int
    form_time: float
    sign_masses: Dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def n_data_states(self) -> int:
        return self.data_source.n_states

    @property
    def n_drift_states(self) -> int:
        return self.drift_source.n_states

    @property
    def n_counter_states(self) -> int:
        return counter_state_count(self.counter_length)

    @property
    def n_phase_points(self) -> int:
        return self.grid.n_points

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    def state_index(
        self, data_state: int, drift_state: int, counter_value: int, phase_index: int
    ) -> int:
        D, H, C, M = (
            self.n_data_states,
            self.n_drift_states,
            self.n_counter_states,
            self.n_phase_points,
        )
        c = counter_value + (self.counter_length - 1)
        if not (
            0 <= data_state < D
            and 0 <= drift_state < H
            and 0 <= c < C
            and 0 <= phase_index < M
        ):
            raise ValueError("state coordinates out of range")
        return ((data_state * H + drift_state) * C + c) * M + phase_index

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        distribution = np.asarray(distribution, dtype=float)
        if distribution.shape != (self.n_states,):
            raise ValueError("distribution has wrong size")
        return distribution.reshape(-1, self.n_phase_points).sum(axis=0)

    def drift_marginal(self, distribution: np.ndarray) -> np.ndarray:
        D, H = self.n_data_states, self.n_drift_states
        CM = self.n_counter_states * self.n_phase_points
        return (
            np.asarray(distribution, dtype=float)
            .reshape(D, H, CM)
            .sum(axis=(0, 2))
        )

    def phase_values_per_state(self) -> np.ndarray:
        blocks = self.n_data_states * self.n_drift_states * self.n_counter_states
        return np.tile(self.grid.values, blocks)

    def multigrid_strategy(self, coarsest_phase_points: int = 8) -> CoarseningStrategy:
        """Grid pairing of the ``(d, h, c, m)`` grid, drift axis included."""
        shape = (
            self.n_data_states,
            self.n_drift_states,
            self.n_counter_states,
            self.n_phase_points,
        )
        return pairing_hierarchy(
            grid_pairing_partitions(shape, coarsest_phase_points)
        )

    def transition_operator(self):
        """The chain as a :class:`~repro.markov.linop.TransitionOperator`.

        The modulated builder always assembles, so this is the
        :class:`~repro.markov.linop.AssembledOperator` adapter -- it makes
        modulated models first-class citizens of the registry dispatch
        (``stationary_distribution(model.transition_operator(), ...)``).
        """
        from repro.markov.linop import as_operator

        return as_operator(self.chain)

    def slip_row_sums(self) -> np.ndarray:
        """Per-state cycle-slip flux (matches ``slip_matrix.sum(axis=1)``)."""
        return np.asarray(self.slip_matrix.sum(axis=1)).ravel()

    def __repr__(self) -> str:
        return (
            f"ModulatedCDRModel(states={self.n_states}, D={self.n_data_states}, "
            f"H={self.n_drift_states}, C={self.n_counter_states}, "
            f"M={self.n_phase_points})"
        )


def build_modulated_cdr_chain(
    grid: PhaseGrid,
    nw: DiscreteDistribution,
    drift_source: MarkovSource,
    counter_length: int,
    phase_step_units: int,
    nr: Optional[DiscreteDistribution] = None,
    data_source: Optional[MarkovSource] = None,
    transition_density: float = 0.5,
    max_run_length: int = 3,
) -> ModulatedCDRModel:
    """Assemble the CDR chain with Markov-modulated drift.

    The total per-symbol drift is ``emission(h) + n_r`` where ``h`` is the
    hidden drift state and ``n_r`` an optional residual white component.
    Hidden-state emissions are quantized to grid steps with
    mean-preserving splitting (a deterministic emission becomes at most
    two probabilistic step counts, so sub-grid-step modulation is
    represented exactly in the mean).

    Other parameters as in :func:`repro.cdr.model.build_cdr_chain`.
    """
    if counter_length < 1:
        raise ValueError("counter_length must be at least 1")
    if phase_step_units < 1:
        raise ValueError("phase_step_units must be at least 1")
    if nr is None:
        nr = DiscreteDistribution.delta(0.0)
    if data_source is None:
        data_source = transition_run_length_source(
            "data", transition_density, max_run_length
        )
    for i in range(data_source.n_states):
        if data_source.symbol(i) not in (0, 1):
            raise ValueError("data_source must emit transition indicators (0 or 1)")

    with span("cdr.build_tpm", modulated=True) as build_span:
        return _assemble_modulated(
            grid, nw, drift_source, counter_length, phase_step_units, nr,
            data_source, build_span,
        )


def _assemble_modulated(
    grid: PhaseGrid,
    nw: DiscreteDistribution,
    drift_source: MarkovSource,
    counter_length: int,
    phase_step_units: int,
    nr: DiscreteDistribution,
    data_source: MarkovSource,
    build_span,
) -> ModulatedCDRModel:
    start = time.perf_counter()
    M = grid.n_points
    N = int(counter_length)
    C = counter_state_count(N)
    D = data_source.n_states
    H = drift_source.n_states
    g = int(phase_step_units)

    nr_steps = grid.quantize_to_steps(nr)
    emission_atoms = []
    max_emit = 0
    for h in range(H):
        atoms = grid.quantize_to_steps(
            DiscreteDistribution.delta(float(drift_source.symbol(h)))
        )
        emission_atoms.append(list(zip(atoms.values.astype(int), atoms.probs)))
        max_emit = max(max_emit, int(np.max(np.abs(atoms.values))))
    max_move = g + int(np.max(np.abs(nr_steps.values))) + max_emit
    if max_move >= M:
        raise ValueError(
            f"phase moves of up to {max_move} grid steps exceed the grid size {M}"
        )

    masses = _sign_masses(grid, nw)
    ones = np.ones(M)
    m_idx = np.arange(M)

    rows, cols, vals = [], [], []
    s_rows, s_cols, s_vals = [], [], []

    for d in range(D):
        t = data_source.symbol(d)
        d_branches = data_source.branches(d)
        decisions = (
            [(1, masses[1]), (0, masses[0]), (-1, masses[-1])]
            if t == 1
            else [(0, ones)]
        )
        for h in range(H):
            h_branches = drift_source.branches(h)
            e_atoms = emission_atoms[h]
            for c in range(C):
                c_val = c - (N - 1)
                for o, q_o in decisions:
                    v = c_val + o
                    if v >= N:
                        direction, c_next_val = 1, 0
                    elif v <= -N:
                        direction, c_next_val = -1, 0
                    else:
                        direction, c_next_val = 0, v
                    c_next = c_next_val + (N - 1)
                    for e_steps, q_e in e_atoms:
                        for r_steps, q_r in zip(nr_steps.values, nr_steps.probs):
                            shift = -g * direction + int(r_steps) + int(e_steps)
                            m_next, wraps = grid.shift_indices(m_idx, shift)
                            slipped = wraps != 0
                            base_prob = q_o * (q_e * q_r)
                            for h_next, p_h in h_branches:
                                for d_next, p_d in d_branches:
                                    prob = base_prob * (p_h * p_d)
                                    nz = prob > 0.0
                                    if not np.any(nz):
                                        continue
                                    row = ((d * H + h) * C + c) * M + m_idx[nz]
                                    col = (
                                        (d_next * H + h_next) * C + c_next
                                    ) * M + m_next[nz]
                                    rows.append(row)
                                    cols.append(col)
                                    vals.append(prob[nz])
                                    slip_nz = nz & slipped
                                    if np.any(slip_nz):
                                        s_rows.append(
                                            ((d * H + h) * C + c) * M + m_idx[slip_nz]
                                        )
                                        s_cols.append(
                                            ((d_next * H + h_next) * C + c_next) * M
                                            + m_next[slip_nz]
                                        )
                                        s_vals.append(prob[slip_nz])

    n = D * H * C * M
    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    P.sum_duplicates()
    if s_vals:
        E = sp.coo_matrix(
            (np.concatenate(s_vals), (np.concatenate(s_rows), np.concatenate(s_cols))),
            shape=(n, n),
        ).tocsr()
        E.sum_duplicates()
    else:
        E = sp.csr_matrix((n, n))
    form_time = time.perf_counter() - start
    build_span.set_attributes(n_states=n, nnz=int(P.nnz), n_drift_states=H)
    registry = get_registry()
    registry.counter(
        "repro_tpm_builds_total", "CDR transition matrices assembled"
    ).inc()
    registry.histogram(
        "repro_tpm_build_seconds", "Wall time of CDR TPM assembly"
    ).observe(form_time)
    return ModulatedCDRModel(
        chain=MarkovChain(P),
        slip_matrix=E,
        grid=grid,
        nw=nw,
        nr_steps=nr_steps,
        data_source=data_source,
        drift_source=drift_source,
        counter_length=N,
        phase_step_units=g,
        form_time=form_time,
        sign_masses=masses,
    )
