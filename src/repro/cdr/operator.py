"""Matrix-free application of the CDR transition operator.

Explicit sparse storage is the paper's admitted bottleneck: "For now, we
use explicit sparse storage ... which allows solving models of practical
clock recovery circuits with [~1e5] states.  For solving more complex
models, we are looking into using hierarchical generalized
Kronecker-algebra ... representations."

:class:`CDRTransitionOperator` is that direction realized for this model
class: it applies ``x -> P^T x`` (and ``v -> P v``) directly from the
model's *structure* -- the small (data-state, decision, counter, drift)
alphabet and circular phase shifts -- without ever materializing the
matrix.  Memory is ``O(n)`` for a handful of work vectors instead of
``O(nnz)``; per-application cost is the same ``O(nnz)`` arithmetic, done
as vectorized block-roll operations.

Combined with the matrix-free power iteration this pushes the feasible
model size to tens of millions of states on a laptop (the assembled
matrix for 1e7 states at ~9 nnz/row would already need multiple GB).
"""

from __future__ import annotations

import hashlib
import math
import warnings
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cdr.data_source import transition_run_length_source
from repro.cdr.loop_filter import counter_state_count
from repro.cdr.phase_error import PhaseGrid
from repro.fsm.stochastic import MarkovSource
from repro.kernels import RollPlan, as_apply_block, as_apply_vector, get_kernel
from repro.markov.multigrid import CoarseningStrategy, pairing_hierarchy
from repro.noise.distributions import DiscreteDistribution
from repro.obs import get_registry, span

__all__ = ["CDRTransitionOperator"]


def _sign_masses(
    grid: PhaseGrid, nw: DiscreteDistribution
) -> Dict[int, np.ndarray]:
    """Per-phase-index probability that ``sgn(phi_m + n_w)`` is -1 / 0 / +1.

    The eye-opening noise ``n_w`` influences the chain *only* through the
    phase detector's three-valued decision, so its atoms are pre-aggregated
    into these three masses -- exactly equivalent to enumerating every
    atom, minus a factor of ``n_atoms(n_w)`` in terms and nonzeros.
    """
    phi = grid.values[None, :]  # (1, M)
    w = nw.values[:, None]      # (K, 1)
    q = nw.probs[:, None]
    noisy = phi + w
    plus = (noisy > 0.0)
    minus = (noisy < 0.0)
    zero = ~plus & ~minus
    return {
        1: (q * plus).sum(axis=0),
        0: (q * zero).sum(axis=0),
        -1: (q * minus).sum(axis=0),
    }


class CDRTransitionOperator:
    """The CDR chain's transition operator, applied without assembly.

    The single place where the CDR chain is validated and enumerated:
    :func:`repro.cdr.model.build_cdr_chain` takes the same parameters and
    assembles :meth:`to_csr` and :meth:`slip_matrix` of this operator.
    """

    def __init__(
        self,
        grid: PhaseGrid,
        nw: DiscreteDistribution,
        nr: DiscreteDistribution,
        counter_length: int,
        phase_step_units: int,
        data_source: Optional[MarkovSource] = None,
        transition_density: float = 0.5,
        max_run_length: int = 3,
    ) -> None:
        if counter_length < 1:
            raise ValueError("counter_length must be at least 1")
        if phase_step_units < 1:
            raise ValueError("phase_step_units must be at least 1")
        if data_source is None:
            data_source = transition_run_length_source(
                "data", transition_density, max_run_length
            )
        for i in range(data_source.n_states):
            if data_source.symbol(i) not in (0, 1):
                raise ValueError(
                    "data_source must emit transition indicators (0 or 1); "
                    f"hidden state {i} emits {data_source.symbol(i)!r}"
                )
        self.grid = grid
        self.nw = nw
        self.data_source = data_source
        self.counter_length = int(counter_length)
        self.phase_step_units = int(phase_step_units)
        self.nr_steps = grid.quantize_to_steps(nr)
        self._check_phase_moves()
        self._masses = _sign_masses(grid, nw)
        with span("cdr.compile_operator") as op_span:
            self._terms = self._compile_terms()
            self._plan = RollPlan(self._terms, self.D * self.C, self.M)
            self._kernel = get_kernel()
            op_span.set_attributes(
                n_states=self.n,
                n_terms=len(self._terms),
                n_roll_terms=self._plan.n_terms,
                kernel_tier=self._kernel.name,
            )
        self._topology_sha256: Optional[str] = None
        self._diag: Optional[np.ndarray] = None
        self._ones: Optional[np.ndarray] = None
        get_registry().counter(
            "repro_operator_compiles_total",
            "Matrix-free CDR operators compiled",
        ).inc()

    # ------------------------------------------------------------------ #

    @property
    def M(self) -> int:
        return self.grid.n_points

    @property
    def C(self) -> int:
        return counter_state_count(self.counter_length)

    @property
    def D(self) -> int:
        return self.data_source.n_states

    @property
    def n(self) -> int:
        """Global state count."""
        return self.D * self.C * self.M

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    def _check_phase_moves(self) -> None:
        """Reject moves wider than the grid; warn on a decoupled lattice."""
        g = self.phase_step_units
        M = self.M
        max_move = g + int(np.max(np.abs(self.nr_steps.values)))
        if max_move >= M:
            raise ValueError(
                f"phase moves of up to {max_move} grid steps exceed the grid "
                f"size {M}; refine the grid or reduce the step/drift"
            )
        # If every possible phase move (the correction step G and all n_r
        # atoms) shares a common factor with the grid size, the phase
        # lattice decomposes into non-communicating residue classes and the
        # stationary distribution is not unique.  Flag it early.
        move_gcd = g
        for r in self.nr_steps.values.astype(int):
            if r != 0:
                move_gcd = math.gcd(move_gcd, abs(r))
        if move_gcd > 1 and math.gcd(move_gcd, M) > 1:
            warnings.warn(
                f"all phase moves are multiples of {move_gcd}: the phase grid "
                f"decomposes into {math.gcd(move_gcd, M)} non-communicating "
                "residue classes; choose a grid size or n_r discretization "
                "that breaks the common factor",
                RuntimeWarning,
                stacklevel=3,
            )

    def _compile_terms(self) -> List[Tuple[int, int, int, Optional[np.ndarray], float]]:
        """Flatten the transition structure into per-block roll terms.

        Each term is ``(src_block, dst_block, shift, q_vec, scalar)``:
        probability-weighted mass moves from phase-vector block
        ``(d, c)`` to block ``(d', c')`` with a circular shift, where
        ``q_vec`` is the per-phase decision mass (or None for 1) and
        ``scalar`` collects the data/drift probabilities.  Blocks are
        indexed ``d * C + c``.
        """
        N = self.counter_length
        C = self.C
        g = self.phase_step_units
        terms = []
        ones = None
        for d in range(self.D):
            t = self.data_source.symbol(d)
            branches = self.data_source.branches(d)
            decisions = (
                [(1, self._masses[1]), (0, self._masses[0]), (-1, self._masses[-1])]
                if t == 1
                else [(0, ones)]
            )
            for c in range(C):
                c_val = c - (N - 1)
                for o, q_vec in decisions:
                    v = c_val + o
                    if v >= N:
                        direction, c_next_val = 1, 0
                    elif v <= -N:
                        direction, c_next_val = -1, 0
                    else:
                        direction, c_next_val = 0, v
                    c_next = c_next_val + (N - 1)
                    for r_steps, q_r in zip(
                        self.nr_steps.values, self.nr_steps.probs
                    ):
                        shift = -g * direction + int(r_steps)
                        for d_next, p_d in branches:
                            terms.append(
                                (
                                    d * C + c,
                                    d_next * C + c_next,
                                    shift,
                                    q_vec,
                                    float(q_r * p_d),
                                )
                            )
        return terms

    # ------------------------------------------------------------------ #
    # operator applications
    # ------------------------------------------------------------------ #

    @property
    def kernel_tier(self) -> str:
        """Name of the kernel tier this operator applies through."""
        return self._kernel.name

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``P^T x``: propagate a (row) distribution one symbol forward.

        Mass in source block ``b`` at phase ``m`` lands in destination
        block ``b'`` at phase ``(m + shift) mod M`` -- a circular roll,
        executed as contiguous-slice segments by the active kernel tier
        (bit-identical to applying ``to_csr().T``).  A C-contiguous
        float64 ``x`` is consumed without copying.
        """
        x = as_apply_vector(x, self.n)
        out = np.zeros(self.n)
        self._kernel.roll_apply(self._plan.q, self._plan.scatter, x, out)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``P v`` (adjoint of :meth:`rmatvec`)."""
        v = as_apply_vector(v, self.n)
        out = np.zeros(self.n)
        self._kernel.roll_apply(self._plan.q, self._plan.gather, v, out)
        return out

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        """``P^T X`` for an ``(n, k)`` block of vectors in one pass.

        The blocked kernels stream the weight table once per segment for
        all ``k`` columns, amortizing the weight/index traffic that a
        column-at-a-time loop would re-read ``k`` times; column ``j`` of
        the result is bit-identical to ``rmatvec(X[:, j])``.
        """
        X = as_apply_block(X, self.n)
        out = np.zeros_like(X)
        self._kernel.roll_apply(self._plan.q, self._plan.scatter, X, out)
        return out

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """``P V`` for an ``(n, k)`` block (adjoint of :meth:`rmatmat`)."""
        V = as_apply_block(V, self.n)
        out = np.zeros_like(V)
        self._kernel.roll_apply(self._plan.q, self._plan.gather, V, out)
        return out

    def as_linear_operator(self):
        """scipy ``LinearOperator`` view (for Krylov methods)."""
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator(
            self.shape, matvec=self.matvec, rmatvec=self.rmatvec,
            matmat=self.matmat, rmatmat=self.rmatmat, dtype=float,
        )

    # ------------------------------------------------------------------ #
    # structural queries (TransitionOperator protocol)
    # ------------------------------------------------------------------ #

    def diagonal(self) -> np.ndarray:
        """``diag(P)`` from the term structure (for Jacobi splittings).

        Computed once from the terms and cached readonly: Jacobi/multigrid
        smoothers call this every sweep, and rebuilding the block scratch
        array per call was pure waste (ROADMAP item 1 bugfix sweep).
        """
        if self._diag is None:
            M = self.M
            diag = np.zeros((self.D * self.C, M))
            for src, dst, shift, q_vec, scalar in self._terms:
                if src == dst and shift % M == 0:
                    diag[src] += scalar * (q_vec if q_vec is not None else 1.0)
            diag = diag.ravel()
            diag.flags.writeable = False
            self._diag = diag
        return self._diag

    def row_sums(self) -> np.ndarray:
        """``P 1`` -- all ones for this stochastic-by-construction chain.

        The chain is row-stochastic by construction (decision masses and
        branch/drift probabilities each sum to one), so this returns a
        cached readonly ones vector instead of running a full
        ``matvec(ones)`` on every call -- solver preambles and residual
        checks call it per solve, which made it a measurable hot-path tax.
        Use :meth:`stochasticity_defect` to *verify* ``P 1 = 1``
        numerically (the test suite does).
        """
        if self._ones is None:
            ones = np.ones(self.n)
            ones.flags.writeable = False
            self._ones = ones
        return self._ones

    def stochasticity_defect(self) -> float:
        """``max |P 1 - 1|`` computed by an actual matvec (guard check).

        :meth:`row_sums` answers from structure; this is the numerical
        verification that the compiled plan really is row-stochastic.
        """
        return float(np.abs(self.matvec(np.ones(self.n)) - 1.0).max())

    def to_csr(self) -> sp.csr_matrix:
        """Materialize the explicit CSR matrix (identical to the builder's).

        Only needed by solvers that require the assembled sparsity pattern;
        costs the O(nnz) memory the operator otherwise avoids.  Built from
        the coalesced plan so the matrix and the kernels agree bit for bit
        (same merged values, same per-row column order).
        """
        return self._plan.to_csr()

    def triplets(self):
        """The matrix's entries in CSR order, one source block per chunk.

        What :func:`~repro.markov.lumping.lumped_tpm` builds the Galerkin
        coarse operators from without the fine matrix ever existing; the
        same enumeration as :meth:`to_csr`, so matrix-free and assembled
        coarse levels agree bit for bit.
        """
        return self._plan.triplets()

    def structure_token(self):
        """Hashable structure identity (noise probabilities excluded).

        Two operators with equal tokens have identical state layouts and
        branch/shift structure, so a coarsening hierarchy or warm-start
        vector built for one is valid for the other -- this is what lets
        sweep points differing only in ``nw_std``/``nr`` rates share one
        cached hierarchy (see :func:`repro.markov.context.structural_digest`).
        The decision masses ``q_vec`` and the drift/data ``scalar``
        weights are *values*, not structure, and are deliberately left
        out; what remains is the (src, dst, shift) roll topology, carried
        as the SHA-256 of its term list.
        """
        if self._topology_sha256 is None:
            # Every hierarchy-cache lookup digests this token, and the
            # terms never change after construction: hash them once, on
            # first use, so operators never looked up pay nothing.
            topology = np.array(
                [(src, dst, shift % self.M, q_vec is None)
                 for src, dst, shift, q_vec, _ in self._terms],
                dtype=np.int64,
            )
            self._topology_sha256 = hashlib.sha256(topology.tobytes()).hexdigest()
        return (
            "cdr",
            self.D,
            self.C,
            self.M,
            self.counter_length,
            self.phase_step_units,
            self._topology_sha256,
        )

    def _slip_terms(self) -> Iterator[Tuple[int, int, int, np.ndarray, np.ndarray]]:
        """The phase-wrapping part of every term: ``(src, dst, shift, m, w)``.

        A term with circular shift ``s > 0`` wraps the phase across the
        UI boundary exactly for source phases ``m >= M - s``, and ``s < 0``
        for ``m < -s`` (the convention of ``PhaseGrid.shift_indices``);
        ``w`` are the term's transition probabilities at those phases.
        This is the one wrap rule both :meth:`slip_row_sums` and
        :meth:`slip_matrix` are derived from.
        """
        M = self.M
        for src, dst, shift, q_vec, scalar in self._terms:
            if shift == 0:
                continue
            m = np.arange(M - shift, M) if shift > 0 else np.arange(-shift)
            w = np.full(m.size, scalar) if q_vec is None else scalar * q_vec[m]
            yield src, dst, shift, m, w

    def slip_row_sums(self) -> np.ndarray:
        """Per-state probability of a phase-wrap (cycle-slip) transition.

        Equals ``slip_matrix().sum(axis=1)`` without building the matrix.
        This is all :func:`~repro.markov.passage.stationary_event_rate`
        needs, so slip rate and MTBF work matrix-free.
        """
        out = np.zeros((self.D * self.C, self.M))
        for src, _, _, m, w in self._slip_terms():
            out[src, m] += w
        return out.ravel()

    def slip_matrix(self) -> sp.csr_matrix:
        """Sparse ``E <= P`` of the transitions that wrap the phase (slips)."""
        M, n = self.M, self.n
        rows, cols, vals = [], [], []
        for src, dst, shift, m, w in self._slip_terms():
            rows.append(src * M + m)
            cols.append(dst * M + (m + shift) % M)
            vals.append(w)
        if not vals:
            return sp.csr_matrix((n, n))
        E = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()
        E.eliminate_zeros()
        return E

    # ------------------------------------------------------------------ #
    # multigrid coarsening
    # ------------------------------------------------------------------ #

    def multigrid_strategy(
        self, coarsest_phase_points: int = 8
    ) -> CoarseningStrategy:
        """The multigrid coarsening of the ``(d, c, m)`` grid.

        :func:`repro.cdr.model.grid_pairing_partitions`, as for the
        assembled model, so matrix-free multigrid coarsens exactly like
        the assembled solve.
        """
        from repro.cdr.model import grid_pairing_partitions

        shape = (self.D, self.C, self.M)
        return pairing_hierarchy(
            grid_pairing_partitions(shape, coarsest_phase_points)
        )

    def phase_marginal(self, distribution: np.ndarray) -> np.ndarray:
        """Marginal over the phase axis (matches the assembled model's)."""
        distribution = np.asarray(distribution, dtype=float)
        return distribution.reshape(-1, self.M).sum(axis=0)

    def __repr__(self) -> str:
        return (
            f"CDRTransitionOperator(n={self.n}, D={self.D}, C={self.C}, "
            f"M={self.M}, terms={len(self._terms)})"
        )
