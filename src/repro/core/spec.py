"""Design specification for a digital phase-selection CDR loop.

:class:`CDRSpec` gathers every knob of the analyzed design and its jitter
environment in one validated, immutable record -- the input to
:func:`repro.core.analyzer.analyze_cdr`.  Field names follow the paper's
annotations: ``counter_length`` is the "COUNTER" value of Figures 4-5,
``nw_std`` is "STDnw", ``nr_max`` is "MAXnr".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.cdr.data_source import transition_run_length_source
from repro.cdr.model import CDRChainModel, build_cdr_chain
from repro.cdr.phase_error import PhaseGrid
from repro.noise.distributions import DiscreteDistribution
from repro.noise.jitter import eye_opening_noise, sonet_drift_noise

__all__ = ["CDRSpec"]


@dataclass(frozen=True)
class CDRSpec:
    """Complete specification of the CDR model to analyze.

    Attributes
    ----------
    n_phase_points:
        Phase-error grid resolution ``M`` (points per UI).  Must be a
        multiple of ``n_clock_phases``.
    n_clock_phases:
        Number of selectable VCO phases; the loop correction step is
        ``1 / n_clock_phases`` UI ("G is the smallest phase increment
        available from the internal clock").
    counter_length:
        Up/down counter length ``N`` of the loop filter.
    transition_density:
        Per-symbol data transition probability.
    max_run_length:
        Longest run without transitions (SONET-style spec).
    nw_std:
        RMS of the zero-mean Gaussian eye-opening jitter ``n_w``, in UI.
    nw_atoms:
        Number of atoms in the discretized ``n_w``.
    nw_span_sigmas:
        Half-width of the ``n_w`` discretization grid in sigmas.
    nr_max:
        Bound of the per-symbol drift noise ``n_r`` in UI ("MAXnr").
    nr_mean:
        Mean drift per symbol in UI (frequency offset); ``|nr_mean| <=
        nr_max``.
    nr_skew:
        Probability weight of each non-zero ``n_r`` atom before the mean
        constraint (variance knob of the drift).
    nw_override, nr_override:
        Custom distributions replacing the built-in Gaussian / SONET-drift
        models (advanced use; ``nw_std`` / ``nr_*`` are then ignored for
        model building but ``nw_std`` is still used for Gaussian-tail BER
        unless a value is derivable from the override).
    backend:
        How the transition matrix is realized: any name registered in
        :mod:`repro.markov.registry` (``assembled`` builds the explicit
        sparse TPM; ``matrix-free`` applies the operator structurally
        without materializing it).
    """

    n_phase_points: int = 256
    n_clock_phases: int = 16
    counter_length: int = 8
    transition_density: float = 0.5
    max_run_length: int = 3
    nw_std: float = 0.02
    nw_atoms: int = 11
    nw_span_sigmas: float = 4.0
    nr_max: float = 0.008
    nr_mean: float = 0.002
    nr_skew: float = 0.25
    nw_override: Optional[DiscreteDistribution] = None
    nr_override: Optional[DiscreteDistribution] = None
    backend: str = "assembled"

    def __post_init__(self) -> None:
        # Every rejection names the offending value and says how to fix
        # it: a bad spec must fail here, before any model is built, not
        # hours later inside a sweep.
        if self.n_phase_points < 2:
            raise ValueError(
                f"n_phase_points must be at least 2 (got "
                f"{self.n_phase_points}): the phase grid needs at least "
                f"two points to represent a phase error"
            )
        if self.n_clock_phases < 1:
            raise ValueError(
                f"n_clock_phases must be at least 1 (got "
                f"{self.n_clock_phases}): the phase selector needs at "
                f"least one clock phase to choose from"
            )
        if self.n_phase_points % self.n_clock_phases != 0:
            raise ValueError(
                f"n_phase_points ({self.n_phase_points}) must be a "
                f"multiple of n_clock_phases ({self.n_clock_phases}) so "
                f"the phase-select step lands on the quantizer grid; "
                f"try n_phase_points="
                f"{self.n_clock_phases * max(1, round(self.n_phase_points / self.n_clock_phases))}"
            )
        if self.counter_length < 1:
            raise ValueError(
                f"counter_length must be at least 1 (got "
                f"{self.counter_length}): the up/down counter needs at "
                f"least one count before it can fire a phase step"
            )
        if not 0.0 < self.transition_density <= 1.0:
            raise ValueError(
                f"transition_density must be in (0, 1] (got "
                f"{self.transition_density}): it is the probability of a "
                f"data transition per symbol, and without transitions the "
                f"loop receives no timing information"
            )
        if self.max_run_length < 1:
            raise ValueError(
                f"max_run_length must be at least 1 (got "
                f"{self.max_run_length})"
            )
        if self.nw_override is None and self.nw_std <= 0:
            raise ValueError(
                f"nw_std must be positive (got {self.nw_std}): a zero or "
                f"negative sigma makes the discretized eye-opening noise "
                f"degenerate; pass nw_override=DiscreteDistribution(...) "
                f"to model a custom (even noiseless) eye"
            )
        if self.nw_atoms < 1:
            raise ValueError(
                f"nw_atoms must be at least 1 (got {self.nw_atoms})"
            )
        if self.nr_override is None:
            if self.nr_max <= 0:
                raise ValueError(
                    f"nr_max must be positive (got {self.nr_max}); pass "
                    f"nr_override=DiscreteDistribution(...) for a custom "
                    f"drift model"
                )
            if abs(self.nr_mean) > self.nr_max:
                raise ValueError(
                    f"|nr_mean| must not exceed nr_max (got nr_mean="
                    f"{self.nr_mean}, nr_max={self.nr_max}): the drift "
                    f"distribution is supported on [-nr_max, nr_max]"
                )
        # Validate against the registry (importing repro.cdr.backends makes
        # sure the built-in backends have registered themselves).
        import repro.cdr.backends  # noqa: F401
        from repro.markov.registry import backend_names, get_backend

        if self.backend not in backend_names():
            get_backend(self.backend)  # raises the choose-from ValueError

    # ------------------------------------------------------------------ #

    @property
    def phase_step_units(self) -> int:
        """Loop correction step ``G`` in grid units."""
        return self.n_phase_points // self.n_clock_phases

    @property
    def grid(self) -> PhaseGrid:
        return PhaseGrid(self.n_phase_points)

    def nw_distribution(self) -> DiscreteDistribution:
        """The (discretized) eye-opening noise used for model building."""
        if self.nw_override is not None:
            return self.nw_override
        return eye_opening_noise(
            self.nw_std, n_atoms=self.nw_atoms, n_sigmas=self.nw_span_sigmas
        )

    def nr_distribution(self) -> DiscreteDistribution:
        """The drift noise (UI-valued; quantized to the grid by the builder)."""
        if self.nr_override is not None:
            return self.nr_override
        # Deliberately NOT snapped to the grid: the builder's
        # mean-preserving split quantization spreads the bound over two
        # adjacent step counts, which keeps the phase lattice connected
        # even when the phase-select step G is a power of two.
        return sonet_drift_noise(
            max_ui=self.nr_max,
            mean_ui=self.nr_mean,
            skew=self.nr_skew,
        )

    def data_source(self):
        return transition_run_length_source(
            "data", self.transition_density, self.max_run_length
        )

    def expected_state_count(self) -> int:
        """State count of the product chain this spec compiles to."""
        return (
            self.max_run_length
            * (2 * self.counter_length - 1)
            * self.n_phase_points
        )

    def build_model(self) -> CDRChainModel:
        """Compile this spec into a :class:`repro.cdr.model.CDRChainModel`."""
        return build_cdr_chain(
            grid=self.grid,
            nw=self.nw_distribution(),
            nr=self.nr_distribution(),
            counter_length=self.counter_length,
            phase_step_units=self.phase_step_units,
            data_source=self.data_source(),
        )

    def replace(self, **changes) -> "CDRSpec":
        """A copy of the spec with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        return (
            f"CDRSpec(M={self.n_phase_points}, phases={self.n_clock_phases}, "
            f"COUNTER={self.counter_length}, p_t={self.transition_density}, "
            f"L={self.max_run_length}, STDnw={self.nw_std:g}, "
            f"MAXnr={self.nr_max:g}, MEANnr={self.nr_mean:g})"
        )
