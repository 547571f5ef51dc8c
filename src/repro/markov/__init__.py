"""Discrete-time Markov chain engine.

Everything the paper's analysis rests on: sparse transition-probability
matrices (:mod:`repro.markov.chain`), structural classification
(:mod:`repro.markov.classify`), stationary solvers from power iteration to
the multi-level aggregation multigrid of Horton & Leutenegger
(:mod:`repro.markov.solvers`, :mod:`repro.markov.multigrid`), lumping and
aggregation/disaggregation (:mod:`repro.markov.lumping`,
:mod:`repro.markov.aggregation`), first-passage and event-rate analysis
(:mod:`repro.markov.passage`), and transient/correlation analyses
(:mod:`repro.markov.transient`, :mod:`repro.markov.correlation`).
"""

from repro.markov.chain import MarkovChain, random_chain, validate_stochastic_matrix
from repro.markov.classify import (
    ChainStructure,
    absorbing_states,
    classify,
    communicating_classes,
    is_aperiodic,
    is_irreducible,
    period,
    reachable_from,
)
from repro.markov.lumping import (
    GalerkinPlan,
    Partition,
    aggregate_distribution,
    is_lumpable,
    lump,
    lumped_tpm,
)
from repro.markov.aggregation import disaggregate, solve_aggregation_disaggregation
from repro.markov.monitor import (
    IterationEvent,
    NullMonitor,
    RecordingMonitor,
    SolverMonitor,
    TeeMonitor,
    VCycleLevelEvent,
    load_trace,
)
from repro.markov.multigrid import (
    MultigridOptions,
    MultigridSolver,
    coarsening_names,
    get_coarsening,
    pairing_hierarchy,
    pairwise_strength_partition,
    register_coarsening,
    solve_multigrid,
    strength_of_connection_partition,
)
from repro.markov.context import (
    AMGPreconditioner,
    CoarseningHierarchy,
    SolveContext,
    build_hierarchy,
    structural_digest,
)
from repro.markov.passage import (
    expected_visits,
    hitting_probabilities,
    hitting_time_moments,
    mean_first_passage_times,
    mean_recurrence_time,
    mean_time_between_events,
    stationary_event_rate,
)
from repro.markov.solvers import (
    DirectPlan,
    StationaryResult,
    solve_direct,
    solve_eigen,
    solve_gauss_seidel,
    solve_jacobi,
    solve_krylov,
    solve_power,
    solve_sor,
    subdominant_eigenvalue,
)
from repro.markov.fundamental import (
    deviation_matrix,
    fundamental_matrix_kemeny_snell,
    kemeny_constant,
    pairwise_mean_first_passage,
    time_average_variance,
)
from repro.markov.censoring import censored_chain, stochastic_complement
from repro.markov.reversibility import (
    detailed_balance_violation,
    is_reversible,
    reversibilization,
)
from repro.markov.perturbation import (
    condition_number,
    perturbed_stationary,
    stationary_perturbation,
)
from repro.markov.linop import (
    AssembledOperator,
    OperatorCapabilityError,
    TransitionOperator,
    as_operator,
    ensure_csr,
    operator_matmat,
    operator_residual,
    operator_rmatmat,
    unwrap_operator,
)
from repro.markov.registry import (
    BackendEntry,
    SolverEntry,
    backend_names,
    backend_table,
    get_backend,
    get_solver,
    register_backend,
    register_solver,
    solver_names,
    solver_table,
)
from repro.markov.stationary import stationary_distribution
from repro.markov.correlation import (
    autocorrelation,
    autocovariance,
    power_spectral_density,
)
from repro.markov.transient import (
    distribution_at,
    distribution_trajectory,
    expected_trajectory,
    mixing_time,
    total_variation,
)


__all__ = [
    "MarkovChain",
    "random_chain",
    "validate_stochastic_matrix",
    "ChainStructure",
    "classify",
    "communicating_classes",
    "is_irreducible",
    "is_aperiodic",
    "period",
    "absorbing_states",
    "reachable_from",
    "Partition",
    "is_lumpable",
    "lump",
    "lumped_tpm",
    "GalerkinPlan",
    "aggregate_distribution",
    "disaggregate",
    "solve_aggregation_disaggregation",
    "MultigridOptions",
    "MultigridSolver",
    "solve_multigrid",
    "pairing_hierarchy",
    "pairwise_strength_partition",
    "strength_of_connection_partition",
    "register_coarsening",
    "get_coarsening",
    "coarsening_names",
    "SolveContext",
    "CoarseningHierarchy",
    "AMGPreconditioner",
    "build_hierarchy",
    "structural_digest",
    "unwrap_operator",
    "SolverMonitor",
    "NullMonitor",
    "RecordingMonitor",
    "TeeMonitor",
    "IterationEvent",
    "VCycleLevelEvent",
    "load_trace",
    "StationaryResult",
    "DirectPlan",
    "solve_direct",
    "solve_power",
    "solve_jacobi",
    "solve_gauss_seidel",
    "solve_sor",
    "solve_krylov",
    "solve_eigen",
    "subdominant_eigenvalue",
    "stationary_distribution",
    "TransitionOperator",
    "AssembledOperator",
    "OperatorCapabilityError",
    "as_operator",
    "ensure_csr",
    "operator_matmat",
    "operator_rmatmat",
    "operator_residual",
    "SolverEntry",
    "register_solver",
    "get_solver",
    "solver_names",
    "solver_table",
    "BackendEntry",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_table",
    "deviation_matrix",
    "fundamental_matrix_kemeny_snell",
    "kemeny_constant",
    "pairwise_mean_first_passage",
    "time_average_variance",
    "censored_chain",
    "stochastic_complement",
    "is_reversible",
    "detailed_balance_violation",
    "reversibilization",
    "stationary_perturbation",
    "perturbed_stationary",
    "condition_number",
    "mean_first_passage_times",
    "hitting_time_moments",
    "hitting_probabilities",
    "expected_visits",
    "mean_recurrence_time",
    "stationary_event_rate",
    "mean_time_between_events",
    "autocovariance",
    "autocorrelation",
    "power_spectral_density",
    "distribution_at",
    "distribution_trajectory",
    "expected_trajectory",
    "total_variation",
    "mixing_time",
]
