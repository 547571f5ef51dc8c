"""Clock-and-data-recovery circuit models.

The building blocks of the paper's industrial example (Figure 2): data
statistics (:mod:`repro.cdr.data_source`), bang-bang phase detectors
(:mod:`repro.cdr.phase_detector`), up/down counter loop filters
(:mod:`repro.cdr.loop_filter`), the discretized phase error
(:mod:`repro.cdr.phase_error`) -- plus the vectorized Markov-chain builder
(:mod:`repro.cdr.model`), the literal Figure-2 FSM-network model
(:mod:`repro.cdr.network`), the Monte-Carlo baseline
(:mod:`repro.cdr.montecarlo`), and design-sweep helpers
(:mod:`repro.cdr.sweep`, imported lazily to avoid a circular import with
:mod:`repro.core`).
"""

from repro.cdr.data_source import (
    bernoulli_transition_source,
    nrz_bit_source,
    stationary_transition_density,
    transition_run_length_source,
)
from repro.cdr.loop_filter import counter_state_count, passthrough_filter, updown_counter
from repro.cdr.model import CDRChainModel, build_cdr_chain
from repro.cdr.modulated import (
    ModulatedCDRModel,
    build_modulated_cdr_chain,
    bursty_drift_source,
    sinusoidal_drift_source,
)
from repro.cdr.montecarlo import (
    MonteCarloResult,
    required_symbols_for_ber,
    simulate_cdr,
)
from repro.cdr.network import build_cdr_network, compile_cdr_network
from repro.cdr.operator import CDRTransitionOperator
from repro.cdr.backends import OperatorCDRModel
from repro.cdr.phase_detector import (
    PD_LABELS,
    PD_LAG,
    PD_LEAD,
    PD_NULL,
    alexander_phase_detector,
    bang_bang_decision,
    bang_bang_phase_detector,
)
from repro.cdr.phase_error import PhaseGrid, phase_accumulator_fsm

__all__ = [
    "PhaseGrid",
    "phase_accumulator_fsm",
    "transition_run_length_source",
    "bernoulli_transition_source",
    "nrz_bit_source",
    "stationary_transition_density",
    "bang_bang_decision",
    "bang_bang_phase_detector",
    "alexander_phase_detector",
    "PD_LAG",
    "PD_LEAD",
    "PD_NULL",
    "PD_LABELS",
    "updown_counter",
    "passthrough_filter",
    "counter_state_count",
    "CDRChainModel",
    "build_cdr_chain",
    "ModulatedCDRModel",
    "build_modulated_cdr_chain",
    "sinusoidal_drift_source",
    "bursty_drift_source",
    "build_cdr_network",
    "compile_cdr_network",
    "CDRTransitionOperator",
    "OperatorCDRModel",
    "MonteCarloResult",
    "simulate_cdr",
    "required_symbols_for_ber",
]
