"""Pluggable TPM backends: how a :class:`~repro.core.spec.CDRSpec` becomes
a solvable model.

The paper's pipeline always *assembled* the transition matrix ("For now,
we use explicit sparse storage ...").  This module registers two ways of
realizing the same operator, selected by the spec's ``backend`` field (or
the analyzer/CLI override):

``assembled``
    The explicit CSR matrix (:func:`repro.cdr.model.build_cdr_chain`,
    the operator's ``to_csr()``); memory ``O(nnz)``, every solver
    available.
``matrix-free``
    A compiled :class:`~repro.cdr.operator.CDRTransitionOperator` applied
    structurally; memory ``O(n)``, iterative solvers only (``direct`` /
    ``arnoldi`` raise :class:`~repro.markov.linop.OperatorCapabilityError`
    unless the operator is asked to materialize).

Both are built from the same operator, so they hold the same matrix bit
for bit.  The assembled backend returns the classic
:class:`~repro.cdr.model.CDRChainModel`; the matrix-free one returns an
:class:`OperatorCDRModel` facade with the same measure-facing surface
(``phase_marginal``, ``slip_row_sums``, ``multigrid_strategy``,
grid/noise metadata) but whose ``chain`` is a
:class:`~repro.markov.linop.TransitionOperator`, never a matrix.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cdr.operator import CDRTransitionOperator
from repro.markov.multigrid import CoarseningStrategy
from repro.markov.registry import register_backend
from repro.obs import span

__all__ = ["OperatorCDRModel"]


class OperatorCDRModel:
    """Analyzer-facing facade over a matrix-free CDR operator.

    Mirrors the measure-facing surface of
    :class:`~repro.cdr.model.CDRChainModel` -- grid/noise metadata,
    ``phase_marginal``, slip flux, the multigrid coarsening -- but its
    ``chain`` attribute is the transition *operator*: anything downstream
    that needs the explicit matrix must go through the operator's
    ``to_csr`` capability (and pays the memory the backend exists to
    avoid).  ``slip_matrix`` is always ``None``; slip measures use
    :meth:`slip_row_sums`.
    """

    #: Matrix-free backends never build the sparse slip-flux matrix.
    slip_matrix = None

    def __init__(
        self,
        operator,
        *,
        backend: str,
        form_time: float,
        grid,
        nw,
        nr_steps,
        data_source,
        counter_length: int,
        phase_step_units: int,
    ) -> None:
        self.chain = operator
        self.operator = operator
        self.backend = backend
        self.form_time = float(form_time)
        self.grid = grid
        self.nw = nw
        self.nr_steps = nr_steps
        self.data_source = data_source
        self.counter_length = int(counter_length)
        self.phase_step_units = int(phase_step_units)

    # ------------------------------------------------------------------ #
    # layout / marginals (what repro.core.measures touches)
    # ------------------------------------------------------------------ #

    @property
    def n_states(self) -> int:
        return self.operator.shape[0]

    @property
    def n_phase_points(self) -> int:
        return self.grid.n_points

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        distribution = np.asarray(distribution, dtype=float)
        if distribution.shape != (self.n_states,):
            raise ValueError("distribution has wrong size")
        return self.operator.phase_marginal(distribution)

    def phase_values_per_state(self) -> np.ndarray:
        blocks = self.n_states // self.grid.n_points
        return np.tile(self.grid.values, blocks)

    def slip_row_sums(self) -> np.ndarray:
        """Per-state cycle-slip flux (replaces ``slip_matrix.sum(axis=1)``)."""
        return self.operator.slip_row_sums()

    # ------------------------------------------------------------------ #
    # multigrid support
    # ------------------------------------------------------------------ #

    def multigrid_strategy(
        self, coarsest_phase_points: int = 8
    ) -> CoarseningStrategy:
        return self.operator.multigrid_strategy(coarsest_phase_points)

    def __repr__(self) -> str:
        return (
            f"OperatorCDRModel(backend={self.backend!r}, "
            f"states={self.n_states})"
        )


# ---------------------------------------------------------------------- #
# registered builders (spec -> model)
# ---------------------------------------------------------------------- #

@register_backend(
    "assembled",
    description="explicit sparse TPM (the operator's to_csr); every solver",
)
def _build_assembled(spec):
    return spec.build_model()


@register_backend(
    "matrix-free",
    description="structural operator, O(n) memory; iterative solvers only",
)
def _build_matrix_free(spec) -> OperatorCDRModel:
    start = time.perf_counter()
    with span("cdr.build_tpm", backend="matrix-free") as build_span:
        op = CDRTransitionOperator(
            grid=spec.grid,
            nw=spec.nw_distribution(),
            nr=spec.nr_distribution(),
            counter_length=spec.counter_length,
            phase_step_units=spec.phase_step_units,
            data_source=spec.data_source(),
        )
        build_span.set_attributes(
            n_states=op.n, n_terms=len(op._terms), kernel_tier=op.kernel_tier
        )
    return OperatorCDRModel(
        op,
        backend="matrix-free",
        form_time=time.perf_counter() - start,
        grid=op.grid,
        nw=op.nw,
        nr_steps=op.nr_steps,
        data_source=op.data_source,
        counter_length=op.counter_length,
        phase_step_units=op.phase_step_units,
    )
