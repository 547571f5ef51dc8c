"""Scenario: the paper's baseline phase-selection CDR loop.

The reference workload every engine change is measured against: the
digital phase-selection loop of Demir & Feldmann (DATE 2000) with
SONET-style run-length-limited data, Gaussian eye-opening jitter and
bounded drift, answering the paper's stationary questions -- BER from
the noisy-phase tails, cycle-slip rate from the wrap flux, and the
stationary phase-error statistics.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.scenarios.cdr_base import (
    analyze_scenario_model,
    build_cdr_scenario_model,
    spec_from_params,
)
from repro.scenarios.registry import ScenarioModel, register_scenario
from repro.scenarios.tolerance import Tolerance

_FAST = {
    "n_phase_points": 64,
    "n_clock_phases": 16,
    "counter_length": 2,
    "transition_density": 0.5,
    "max_run_length": 2,
    "nw_std": 0.08,
    "nw_atoms": 7,
    "nw_span_sigmas": 4.0,
    "nr_max": 0.008,
    "nr_mean": 0.002,
    "nr_skew": 0.25,
}

# The paper's Figure-4 operating point: finer grid, full-length counter.
_FULL = {
    **_FAST,
    "n_phase_points": 256,
    "counter_length": 8,
    "max_run_length": 3,
    "nw_std": 0.02,
    "nw_atoms": 11,
}

MEASURES = (
    "ber",
    "ber_discrete",
    "slip_rate",
    "phase_mean_ui",
    "phase_rms_ui",
)


@register_scenario(
    "baseline",
    title="paper phase-selection CDR: stationary BER / slip rate",
    citation="Demir & Feldmann, DATE 2000 (the source paper)",
    measures=MEASURES,
    sizes={"fast": _FAST, "full": _FULL},
    backends=("assembled", "matrix-free"),
    default_solver="krylov",
    tolerances={
        "default": Tolerance(rtol=1e-5, atol=1e-10),
        # The slip flux sums tiny wrap probabilities; give it headroom
        # over the raw stationary-solve tolerance.
        "slip_rate": Tolerance(rtol=5e-5, atol=1e-12),
    },
)
class BaselineScenario:
    @staticmethod
    def build(params: Mapping[str, Any], backend: str = "assembled") -> ScenarioModel:
        return build_cdr_scenario_model(
            spec_from_params(params, backend=backend), backend
        )

    @staticmethod
    def evaluate(
        model: ScenarioModel,
        params: Mapping[str, Any],
        *,
        solver: str = "krylov",
        tol: float = 1e-12,
    ) -> Dict[str, float]:
        analysis = analyze_scenario_model(model, solver=solver, tol=tol)
        return {
            "ber": analysis.ber,
            "ber_discrete": analysis.ber_discrete,
            "slip_rate": analysis.slip_rate,
            "phase_mean_ui": analysis.phase_stats["mean_ui"],
            "phase_rms_ui": analysis.phase_stats["rms_ui"],
        }
