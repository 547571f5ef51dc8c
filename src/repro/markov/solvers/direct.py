"""Direct (sparse LU) solution of the stationary equations.

The singular homogeneous system ``(P^T - I) eta^T = 0`` (paper Eq. (6)) is
made nonsingular by replacing one equation with the normalization
``eta . 1 = 1`` (paper Eq. (7)).  For an irreducible chain the resulting
system has a unique solution.  This is the coarsest-level solver inside the
multigrid method ("the coarsest problem is solved exactly with a direct
method") and the reference answer in tests.

The solve is split like :class:`~repro.markov.lumping.GalerkinPlan`:
:class:`DirectPlan` is the *symbolic* half, computed once per sparsity
pattern, and :meth:`DirectPlan.solve` the *numeric* half, one
fixed-order factorization per call.  :func:`solve_direct` is the plan's
one-shot form; multigrid keeps one plan for its coarsest level through a
solve, and aggregation/disaggregation one through its iteration.

* **Normalization state.**  The equation replaced by the all-ones row is
  that of ``r = argmax(w P)``, the state most entered after one step
  from the weights ``w`` (the caller's iterate, or uniform), taken among
  the states of closed classes (all states when the chain is
  irreducible).
* **Order.**  The states other than ``r`` are ordered by a minimum
  degree ordering of ``B + B^T`` (SuperLU's ``MMD_AT_PLUS_A``), ``B``
  being the block of ``I - P^T`` without row and column ``r``; ``r`` (the
  all-ones row and its column) goes last.  The system is permuted
  symmetrically, so every pivot is a diagonal entry and the fill is that
  of the symmetrized pattern, the one minimum degree orders for.  COLAMD
  orders for ``B^T B`` instead: on the EXT-OP chain at ``M=512`` it left 4.20M
  L+U entries against 2.66M, and planning plus factoring took 1.27 s
  against 0.59 s.
* **Why no pivoting is safe.**  For an irreducible chain ``B`` is a
  nonsingular M-matrix whose columns are diagonally dominant (column
  ``j`` is row ``j`` of ``I - P``), and Gaussian elimination on such a
  matrix needs no row interchanges: every Schur complement stays a
  column-diagonally-dominant M-matrix.  The all-ones row is eliminated
  last.  Back substitution through the resulting ``U`` (positive diagonal,
  non-positive off-diagonal) adds terms of one sign, so small stationary
  probabilities come out with a small relative error.  Partial pivoting
  instead picks the all-ones row early (its entries beat every
  ``1 - P_ii``), which roughly triples the fill and loses the deep tail.

Needs the assembled sparsity pattern: matrix-free operators are accepted
but are materialized through :func:`~repro.markov.linop.ensure_csr` (which
raises :class:`~repro.markov.linop.OperatorCapabilityError` when the
backend cannot assemble itself).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from repro.markov.linop import ensure_csr
from repro.markov.monitor import SolverMonitor, instrument
from repro.markov.registry import register_solver
from repro.markov.solvers.result import StationaryResult, residual_norm

__all__ = ["DirectPlan", "solve_direct", "augmented_system"]

_SINGULAR = (
    "direct stationary solve failed (singular augmented system; "
    "is the chain irreducible?)"
)


def augmented_system(P: sp.csr_matrix, row: Optional[int] = None) -> sp.csc_matrix:
    """Return ``A = I - P^T`` with equation ``row`` replaced by all-ones.

    ``row`` defaults to the last equation.  The associated right-hand side
    is ``e_row`` (zeros except a 1 in that position).

    The row replacement is done by direct CSR index surgery -- splicing a
    dense ones-row into the ``data``/``indices``/``indptr`` arrays --
    instead of a ``tolil()`` round-trip, which rebuilds the whole matrix as
    Python lists and is an O(n^2)-risk pattern on large chains.
    """
    n = P.shape[0]
    if row is None:
        row = n - 1
    if not 0 <= row < n:
        raise ValueError("row out of range")
    A = (sp.identity(n, format="csr") - P.T.tocsr()).tocsr()
    A.sort_indices()
    start, end = int(A.indptr[row]), int(A.indptr[row + 1])
    data = np.concatenate([A.data[:start], np.ones(n), A.data[end:]])
    indices = np.concatenate(
        [A.indices[:start], np.arange(n, dtype=A.indices.dtype), A.indices[end:]]
    )
    indptr = A.indptr.copy()
    indptr[row + 1 :] += n - (end - start)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n)).tocsc()


def _canonical_csr(P) -> sp.csr_matrix:
    """``P`` as CSR with sorted, summed indices (copied only when needed)."""
    P = ensure_csr(P)
    if not P.has_canonical_format:
        P = P.copy()
        P.sum_duplicates()
    return P


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself when read-only, else a read-only copy.

    Shared read-only index arrays (a :class:`GalerkinPlan`'s coarse
    pattern) then pass :meth:`DirectPlan.matches` by identity.
    """
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _closed(P: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Mask of the states in closed communicating classes.

    ``rows`` holds the row of each stored entry.  All states are closed
    when the chain is irreducible.  The normalization state must be one
    of them: a closed class left in ``B`` makes it singular.
    """
    n_comp, label = connected_components(P, directed=True, connection="strong")
    if n_comp == 1:
        return np.ones(P.shape[0], dtype=bool)
    leaving = label[rows] != label[P.indices]
    return ~np.isin(label, label[rows[leaving]])


class DirectPlan:
    """The symbolic half of :func:`solve_direct`, computed once per pattern.

    Holds the normalization state, the elimination order (module
    docstring), the CSC pattern of the symmetrically permuted augmented
    matrix, and the map that fills its values from a matrix's ``data``:
    a base vector (the identity and the all-ones row) minus the gathered
    transition probabilities.  :meth:`solve` is then the numeric half,
    one SuperLU factorization in that fixed order, without pivoting.

    ``weights`` (default uniform) only choose the normalization state;
    the solution does not depend on them beyond round-off.
    """

    __slots__ = (
        "shape", "state", "perm", "indptr", "indices", "_base", "_dst",
        "_src", "_p_indptr", "_p_indices",
    )

    def __init__(self, P, weights: Optional[np.ndarray] = None) -> None:
        P = _canonical_csr(P)
        n = P.shape[0]
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights must have one entry per state")
        rows = np.repeat(np.arange(n), np.diff(P.indptr))
        entered = P.T @ w
        eligible = np.isfinite(entered) & _closed(P, rows)
        r = int(np.argmax(np.where(eligible, entered, -np.inf)))
        rest = np.flatnonzero(np.arange(n) != r)
        if rest.size:
            # The CSC form of B = I - P^T (without r) is the CSR form of
            # I - P: its transpose is free.
            sub = P[rest][:, rest]
            B = (sp.identity(rest.size, format="csr") - sub).T
            try:
                lu = splu(B, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise ArithmeticError(_SINGULAR) from exc
            # perm_c[j] is the position of column j, so argsort lists
            # the columns in elimination order.
            rest = rest[np.argsort(lu.perm_c)]
        perm = np.append(rest, r)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        # The CSR form of the permuted matrix's transpose -- I - P[perm][:,
        # perm] with its last column all ones -- is the matrix's CSC form.
        # Entries of P in column r belong to the replaced equation.
        rows, cols = pos[rows], pos[P.indices]
        src = np.flatnonzero(cols != n - 1)
        states = np.arange(n)
        key = np.concatenate([
            rows[src] * n + cols[src],  # P
            states[:-1] * (n + 1),  # I
            states * n + n - 1,  # the ones column
        ])
        key, slot = np.unique(key, return_inverse=True)
        self.shape = (n, n)
        self.state = r
        self.perm = perm
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(key // n, minlength=n), out=self.indptr[1:])
        self.indices = (key % n).astype(np.int32)
        self._base = np.bincount(slot[src.size:], minlength=key.size).astype(float)
        self._dst = slot[: src.size]
        self._src = src
        self._p_indptr = _frozen(P.indptr)
        self._p_indices = _frozen(P.indices)

    def matches(self, P: sp.csr_matrix) -> bool:
        """Whether CSR ``P`` has the pattern the plan was built from."""
        return P.shape == self.shape and all(
            a is b or np.array_equal(a, b)
            for a, b in (
                (P.indptr, self._p_indptr), (P.indices, self._p_indices)
            )
        )

    def factor(self, P):
        """SuperLU factors of ``P``'s permuted augmented matrix.

        The numeric factorization alone, in the plan's order with diagonal
        pivots (on an irreducible chain ``perm_r`` and ``perm_c`` are the
        identity).  ``P`` must
        have the plan's sparsity pattern (:class:`ValueError` otherwise);
        a singular system raises :class:`ArithmeticError`.
        """
        P = _canonical_csr(P)
        if not self.matches(P):
            raise ValueError("matrix does not have the plan's sparsity pattern")
        data = self._base.copy()
        data[self._dst] -= P.data.take(self._src)
        A = sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)
        try:
            return splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        except RuntimeError as exc:
            raise ArithmeticError(_SINGULAR) from exc

    def solve(self, P) -> np.ndarray:
        """The stationary vector of ``P`` (the numeric half).

        One :meth:`factor` and one solve for the last unit vector.  Raises
        :class:`ArithmeticError` when the factorization fails or yields
        non-finite values or a zero vector; the result is clipped at zero
        and normalized to sum one.
        """
        n = self.shape[0]
        b = np.zeros(n)
        b[n - 1] = 1.0
        y = self.factor(P).solve(b)
        if not np.all(np.isfinite(y)):
            raise ArithmeticError("direct stationary solve produced non-finite values")
        x = np.empty(n)
        x[self.perm] = np.clip(y, 0.0, None)
        total = x.sum()
        if total <= 0:
            raise ArithmeticError("direct stationary solve produced a zero vector")
        x /= total
        return x


def solve_direct(
    P,
    tol: float = 1e-10,
    x0: Optional[np.ndarray] = None,
    monitor: Optional[SolverMonitor] = None,
) -> StationaryResult:
    """Sparse-LU solve of the augmented stationary system.

    The one-shot form of :class:`DirectPlan`: plan the pattern, then one
    numeric pass.  ``x0`` (default uniform) only chooses the normalization
    state ``argmax(x0 P)``; ``tol`` is accepted for interface uniformity,
    the solution being exact up to round-off.  Raises
    :class:`ArithmeticError` when the LU factorization fails (e.g. a
    reducible chain making the augmented matrix singular).  The monitor
    sees a single iteration event with the final residual.
    """
    P = _canonical_csr(P)
    n = P.shape[0]
    recorder, mon = instrument("direct", n, tol, monitor)
    start = time.perf_counter()
    x = DirectPlan(P, weights=x0).solve(P)
    res = residual_norm(P, x)
    elapsed = time.perf_counter() - start
    mon.iteration_finished(1, res, elapsed)
    converged = res < max(tol, 1e-6)
    mon.solve_finished(converged, 1, res, elapsed)
    return StationaryResult(
        distribution=x,
        iterations=1,
        residual=res,
        converged=converged,
        method="direct",
        residual_history=recorder.residual_history,
        solve_time=elapsed,
        recording=recorder,
    )


@register_solver(
    "direct",
    matrix_free=False,
    description="sparse LU on the augmented normalization system",
    fallback_priority=40,
)
def _dispatch_direct(P, *, tol=1e-10, max_iter=None, x0=None, monitor=None, **kwargs):
    # max_iter is meaningless for a direct factorization, and on_iterate
    # never fires (there are no intermediate iterates); both accepted and
    # ignored so the registry contract stays uniform.
    kwargs.pop("on_iterate", None)
    return solve_direct(P, tol=tol, x0=x0, monitor=monitor, **kwargs)
