"""Scenario: bang-bang CDR with a frequency-error state dimension.

The jitter-analysis line of arXiv:1905.00273 ("Jitter analysis of
bang-bang CDRs") treats the loop's *frequency* error as a first-class
state alongside the phase -- the regime where acquisition, not tracking,
dominates.  This scenario extends the paper's product-chain method with
that extra dimension: the state is ``(f, m)`` where ``f`` is the
quantized frequency error (grid steps of drift per symbol) and ``m`` the
phase-error grid index.

Per symbol the phase moves by the deterministic frequency drift ``f``
steps, a ±1-step jitter kick, and -- when the data has a transition --
the bang-bang correction from the noisy sign decision
``sgn(phi + n_w)``.  Whenever the phase wraps a UI boundary (a cycle
slip) the frequency detector observes the slip direction and, with
probability ``fd_gain``, steps ``f`` one notch against it.  States with
``|f| >= 2`` are transient (the FD reels the frequency in), which is
exactly what makes the headline *acquisition* measure a first-passage
question: starting from the worst corner (maximum frequency error,
farthest phase), how many symbols until the loop is frequency- and
phase-locked?

The transition structure is pure branch superposition, so one
enumeration feeds both backends: :class:`BranchSumOperator` directly for
``matrix-free``, and its ``to_csr`` realization wrapped in a
:class:`MarkovChain` for ``assembled`` -- identical by construction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.cdr.phase_error import PhaseGrid
from repro.markov.chain import MarkovChain
from repro.markov.stationary import stationary_distribution
from repro.noise.jitter import eye_opening_noise
from repro.scenarios.measures import first_passage_survival
from repro.scenarios.operator import BranchSumOperator
from repro.scenarios.registry import ScenarioModel, register_scenario
from repro.scenarios.tolerance import Tolerance

__all__ = ["BangBangScenario", "build_bangbang_operator", "locked_mask"]

_FAST = {
    "n_phase_points": 64,
    "phase_step_units": 2,
    "freq_max": 2,
    "freq_step_units": 1,
    "jitter_prob": 0.1,
    "transition_density": 0.5,
    "fd_gain": 0.7,
    "nw_std": 0.04,
    "nw_atoms": 5,
    "nw_span_sigmas": 3.0,
    "locked_threshold_ui": 0.125,
}

_FULL = {
    **_FAST,
    "n_phase_points": 128,
    "freq_max": 3,
    "nw_atoms": 7,
}

MEASURES = (
    "p_freq_locked",
    "phase_rms_ui",
    "acq_mean_symbols",
    "acq_p99_symbols",
)


def _sign_masses(grid: PhaseGrid, params: Mapping[str, Any]) -> np.ndarray:
    """``P(sgn(phi_m + n_w) = -1 / 0 / +1)`` per phase index, shape (M, 3)."""
    nw = eye_opening_noise(
        params["nw_std"],
        n_atoms=params["nw_atoms"],
        n_sigmas=params["nw_span_sigmas"],
    )
    shifted = grid.values[:, None] + np.asarray(nw.values)[None, :]
    probs = np.asarray(nw.probs)
    masses = np.stack(
        [
            (probs * (shifted < 0.0)).sum(axis=1),
            (probs * (shifted == 0.0)).sum(axis=1),
            (probs * (shifted > 0.0)).sum(axis=1),
        ],
        axis=1,
    )
    return masses


def build_bangbang_operator(params: Mapping[str, Any]) -> BranchSumOperator:
    """Enumerate the ``(f, m)`` branch terms into a BranchSumOperator.

    Layout: global index ``i = (f + F) * M + m``.
    """
    M = int(params["n_phase_points"])
    F = int(params["freq_max"])
    step = int(params["phase_step_units"])
    f_step = int(params["freq_step_units"])
    pj = float(params["jitter_prob"])
    pt = float(params["transition_density"])
    g = float(params["fd_gain"])
    if not 0.0 <= pj <= 0.5:
        raise ValueError("jitter_prob must lie in [0, 1/2]")
    if not 0.0 <= g <= 1.0:
        raise ValueError("fd_gain must lie in [0, 1]")

    grid = PhaseGrid(M)
    masses = _sign_masses(grid, params)
    n_freq = 2 * F + 1
    n = n_freq * M

    f_of_state = np.repeat(np.arange(n_freq) - F, M)
    m_of_state = np.tile(np.arange(M), n_freq)

    # Bang-bang correction: a late decision (positive sampled sign) steps
    # the phase back; an early one steps it forward.  No transition, or a
    # dead-zone zero sign, holds.
    p_minus = pt * np.tile(masses[:, 2], n_freq)
    p_zero = (1.0 - pt) + pt * np.tile(masses[:, 1], n_freq)
    p_plus = pt * np.tile(masses[:, 0], n_freq)
    corrections = ((-step, p_minus), (0, p_zero), (step, p_plus))
    jitters = ((-1, pj), (0, 1.0 - 2.0 * pj), (1, pj))

    terms: List[Tuple[np.ndarray, np.ndarray]] = []
    for corr, p_corr in corrections:
        for jit, p_jit in jitters:
            weight = p_corr * p_jit
            if not np.any(weight):
                continue
            steps = f_of_state * f_step + corr + jit
            new_m, wraps = grid.shift_indices(m_of_state, steps)
            slipped = wraps != 0
            # FD holds: frequency state unchanged (certain when no slip).
            w_hold = weight * np.where(slipped, 1.0 - g, 1.0)
            dest_hold = (f_of_state + F) * M + new_m
            terms.append((w_hold, dest_hold))
            # FD fires: one frequency notch against the slip direction.
            w_fire = weight * g * slipped
            if np.any(w_fire):
                f_corrected = np.clip(f_of_state - np.sign(wraps), -F, F)
                dest_fire = (f_corrected + F) * M + new_m
                terms.append((w_fire, dest_fire))
    return BranchSumOperator(n, terms)


def locked_mask(params: Mapping[str, Any]) -> np.ndarray:
    """States counting as locked: zero frequency error, phase in-band."""
    M = int(params["n_phase_points"])
    F = int(params["freq_max"])
    grid = PhaseGrid(M)
    in_band = np.abs(grid.values) <= float(params["locked_threshold_ui"])
    mask = np.zeros((2 * F + 1) * M, dtype=bool)
    mask[F * M : (F + 1) * M] = in_band
    return mask


@register_scenario(
    "bangbang-freq",
    title="bang-bang CDR with frequency error: acquisition first passage",
    citation="arXiv:1905.00273",
    measures=MEASURES,
    sizes={"fast": _FAST, "full": _FULL},
    backends=("assembled", "matrix-free"),
    default_solver="krylov",
    tolerances={
        "default": Tolerance(rtol=1e-5, atol=1e-10),
        # Survival iteration runs thousands of identical steps on both
        # backends; only summation order differs.
        "acq_mean_symbols": Tolerance(rtol=1e-8, atol=1e-9),
        # Integer step count; absorb a threshold-crossing flip of one.
        "acq_p99_symbols": Tolerance(rtol=0.0, atol=1.0),
    },
)
class BangBangScenario:
    @staticmethod
    def build(params: Mapping[str, Any], backend: str = "assembled") -> ScenarioModel:
        op = build_bangbang_operator(params)
        if backend == "assembled":
            # BranchSumOperator already validated its rows; skipping the
            # row rescale keeps ``chain.P`` bit-identical to the operator.
            chain: Any = MarkovChain(op.to_csr(), validate=False)
        elif backend == "matrix-free":
            chain = op
        else:
            raise ValueError(
                f"bangbang-freq supports backends ('assembled', 'matrix-free'),"
                f" not {backend!r}"
            )
        return ScenarioModel(
            chain=chain,
            backend=backend,
            n_states=op.n,
            extras={"params": dict(params)},
        )

    @staticmethod
    def evaluate(
        model: ScenarioModel,
        params: Mapping[str, Any],
        *,
        solver: str = "krylov",
        tol: float = 1e-12,
    ) -> Dict[str, float]:
        M = int(params["n_phase_points"])
        F = int(params["freq_max"])
        grid = PhaseGrid(M)
        n = model.n_states

        pi = stationary_distribution(
            model.chain, method=solver, tol=tol
        ).require_converged().distribution
        freq_locked = float(pi[F * M : (F + 1) * M].sum())
        phi = np.tile(grid.values, 2 * F + 1)
        phase_rms = float(np.sqrt(np.dot(pi, phi**2)))

        # Acquisition: worst corner -- maximum positive frequency error,
        # phase at the far edge of the UI.
        start = np.zeros(n)
        start[2 * F * M] = 1.0
        passage = first_passage_survival(
            model.chain, start, locked_mask(params), quantile=0.99
        )
        return {
            "p_freq_locked": freq_locked,
            "phase_rms_ui": phase_rms,
            "acq_mean_symbols": passage.mean_symbols,
            "acq_p99_symbols": passage.quantile_symbols,
        }
