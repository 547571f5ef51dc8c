"""Scenario: mesochronous retiming settling under jitter.

In a mesochronous link (arXiv:1604.00230, all-digital resynchronization
for NoC links) the retiming clock has the *same frequency* as the data
but an arbitrary, unknown phase: there is no frequency drift to track,
only an initial phase offset to pull in and jitter to average.  On the
paper's engine that is the phase-selection loop with zero-mean drift
noise (``nr_mean = 0``), and the headline question is *transient*: from
the worst-case initial offset (half a UI, phase at the edge of the
grid), how many symbols until the loop's state distribution settles onto
the stationary one?

Measures: the total-variation settling time to within ``settle_eps`` of
stationary, the integrated excess absolute phase error accumulated while
settling (symbols x UI -- the area between the transient and stationary
error curves), the stationary probability of a large residual error, and
the stationary RMS phase error.  All are computed through the
distribution-propagation protocol (``rmatvec``) so assembled and
matrix-free backends run the identical recursion.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

import numpy as np

from repro.markov.stationary import stationary_distribution
from repro.scenarios.cdr_base import build_cdr_scenario_model, spec_from_params
from repro.scenarios.measures import expected_value_trajectory, tv_settling_time
from repro.scenarios.registry import ScenarioModel, register_scenario
from repro.scenarios.tolerance import Tolerance

__all__ = ["MesochronousScenario", "worst_case_start"]

_FAST = {
    "n_phase_points": 64,
    "n_clock_phases": 16,
    "counter_length": 2,
    "transition_density": 0.5,
    "max_run_length": 2,
    "nw_std": 0.06,
    "nw_atoms": 7,
    "nw_span_sigmas": 4.0,
    # Mesochronous: same frequency, so the drift is zero-mean jitter only
    # (skew keeps its variance role; the mean is pinned to zero).
    "nr_max": 0.006,
    "nr_mean": 0.0,
    "nr_skew": 0.25,
    "settle_eps": 0.05,
    "settle_horizon": 4000,
    "error_threshold_ui": 0.25,
}

_FULL = {
    **_FAST,
    "n_phase_points": 128,
    "counter_length": 4,
    "nw_std": 0.04,
    "settle_horizon": 20000,
}

MEASURES = (
    "settle_symbols",
    "excess_error_sum",
    "stationary_error_rate",
    "phase_rms_ui",
)


def worst_case_start(model) -> np.ndarray:
    """Worst-case initial distribution: phase at the grid edge (~ -1/2 UI),
    data/counter coordinates uniform.

    Both backends lay the product space out as ``((d * C) + c) * M + m``,
    so the half-UI-offset slab is exactly the indices with ``i % M == 0``.
    """
    n = model.n_states
    M = model.n_phase_points
    start = np.zeros(n)
    start[0::M] = 1.0 / (n // M)
    return start


@register_scenario(
    "mesochronous-settle",
    title="mesochronous retiming: settling from a half-UI offset",
    citation="arXiv:1604.00230",
    measures=MEASURES,
    sizes={"fast": _FAST, "full": _FULL},
    backends=("assembled", "matrix-free"),
    default_solver="krylov",
    tolerances={
        "default": Tolerance(rtol=1e-5, atol=1e-10),
        # Integer symbol count; absorb a threshold-crossing flip of one.
        "settle_symbols": Tolerance(rtol=0.0, atol=1.0),
        # A sum over the whole horizon of per-step solver-tolerance-sized
        # differences.
        "excess_error_sum": Tolerance(rtol=1e-4, atol=1e-8),
    },
)
class MesochronousScenario:
    @staticmethod
    def build(params: Mapping[str, Any], backend: str = "assembled") -> ScenarioModel:
        spec = spec_from_params(params, backend=backend)
        return build_cdr_scenario_model(spec, backend)

    @staticmethod
    def evaluate(
        model: ScenarioModel,
        params: Mapping[str, Any],
        *,
        solver: str = "krylov",
        tol: float = 1e-12,
    ) -> Dict[str, float]:
        cdr_model = model.extras["model"]
        horizon = int(params["settle_horizon"])
        eps = float(params["settle_eps"])
        threshold = float(params["error_threshold_ui"])

        pi = stationary_distribution(
            model.chain, method=solver, tol=tol
        ).require_converged().distribution
        abs_phi = np.abs(cdr_model.phase_values_per_state())
        stationary_abs_error = float(np.dot(pi, abs_phi))
        phase_pi = cdr_model.phase_marginal(pi)
        values = cdr_model.grid.values
        phase_rms = float(np.sqrt(np.dot(phase_pi, values**2)))
        error_rate = float(phase_pi[np.abs(values) > threshold].sum())

        start = worst_case_start(cdr_model)
        settle = tv_settling_time(model.chain, start, pi, eps, horizon)
        trajectory = expected_value_trajectory(model.chain, start, abs_phi, horizon)
        excess = float(np.sum(trajectory - stationary_abs_error))

        return {
            "settle_symbols": float(settle),
            "excess_error_sum": excess,
            "stationary_error_rate": error_rate,
            "phase_rms_ui": phase_rms,
        }
