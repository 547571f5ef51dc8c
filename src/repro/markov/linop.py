"""Transition operators: one protocol over every TPM backend.

The paper's scaling complaint is that "explicit sparse storage" of the
transition probability matrix limits the model size, and its future-work
answer is hierarchical Kronecker-algebra representations.  This module is
the seam that makes both worlds interchangeable: a
:class:`TransitionOperator` is anything that can apply ``P v`` and
``P^T x`` and answer a few cheap structural queries, whether the matrix is
an assembled ``scipy.sparse`` CSR, the structural block-roll operator of
:class:`repro.cdr.operator.CDRTransitionOperator`, or a Kronecker/SAN
descriptor (:class:`repro.fsm.kronecker.KroneckerDescriptor`).

Every stationary solver in :mod:`repro.markov.solvers` and the multigrid
of :mod:`repro.markov.multigrid` consumes this protocol.  The iterative
methods (power, Jacobi, Krylov, multigrid) run fully matrix-free; methods
that need the explicit sparsity pattern (direct LU, Gauss-Seidel/SOR
triangular sweeps, ARPACK) call :func:`ensure_csr`, which materializes via
the operator's optional ``to_csr()`` or raises a clear
:class:`OperatorCapabilityError`.

Protocol summary (duck-typed; no inheritance required):

========================  ====================================================
``shape``                 ``(n, n)``
``matvec(v)``             ``P v`` (column action; row-sum/absorption queries)
``rmatvec(x)``            ``P^T x`` (distribution propagation -- what
                          stationary iterations need)
``diagonal()``            ``diag(P)`` (Jacobi splittings)
``row_sums()``            ``P 1`` (stochasticity checks)
``matmat(V)``             *optional* -- blocked ``P V`` for ``(n, k)`` blocks
``rmatmat(X)``            *optional* -- blocked ``P^T X``; column ``j`` must
                          be bit-identical to ``rmatvec(X[:, j])``
``to_csr()``              *optional* -- explicit CSR materialization
``triplets()``            *optional* -- the entries as ``(rows, cols, vals)``
                          chunks in CSR order; all that
                          :func:`~repro.markov.lumping.lumped_tpm` (the one
                          Galerkin coarse-operator builder) consumes
========================  ====================================================

Call sites that want blocked applies without caring whether the backend
implements them use :func:`operator_matmat` / :func:`operator_rmatmat`,
which fall back to a column-at-a-time loop.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np
import scipy.sparse as sp

from repro.markov.chain import MarkovChain

__all__ = [
    "OperatorCapabilityError",
    "TransitionOperator",
    "AssembledOperator",
    "as_operator",
    "unwrap_operator",
    "ensure_csr",
    "operator_matmat",
    "operator_rmatmat",
    "operator_residual",
]


class OperatorCapabilityError(TypeError):
    """A solver asked a transition operator for a capability it lacks.

    Raised e.g. when the direct LU solver is pointed at a matrix-free
    operator that cannot (or was told not to) materialize itself as a CSR
    matrix.  Pick a matrix-free solver (``power``, ``jacobi``, ``krylov``,
    ``multigrid``) or provide ``to_csr()`` on the operator.
    """


@runtime_checkable
class TransitionOperator(Protocol):
    """Structural protocol for transition-matrix backends (duck-typed)."""

    @property
    def shape(self) -> Tuple[int, int]: ...

    def matvec(self, v: np.ndarray) -> np.ndarray: ...

    def rmatvec(self, x: np.ndarray) -> np.ndarray: ...

    def diagonal(self) -> np.ndarray: ...

    def row_sums(self) -> np.ndarray: ...


class AssembledOperator:
    """The assembled-CSR backend: wraps an explicit sparse TPM.

    The transpose is computed lazily and cached, so a solver that applies
    ``rmatvec`` thousands of times pays the transposition once -- exactly
    what the hand-written solvers did with their local ``PT = P.T.tocsr()``.
    """

    __slots__ = ("P", "_PT", "_structure_token")

    def __init__(self, P: sp.spmatrix, structure_token=None) -> None:
        self.P = P.tocsr()
        if self.P.shape[0] != self.P.shape[1]:
            raise ValueError("transition matrix must be square")
        self._PT: Optional[sp.csr_matrix] = None
        self._structure_token = structure_token

    @property
    def shape(self) -> Tuple[int, int]:
        return self.P.shape

    @property
    def nnz(self) -> int:
        return int(self.P.nnz)

    def _transpose(self) -> sp.csr_matrix:
        if self._PT is None:
            self._PT = self.P.T.tocsr()
        return self._PT

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.P.dot(v)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self._transpose().dot(x)

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """Blocked ``P V`` -- scipy's CSR matmat, one pass for all columns."""
        return self.P.dot(V)

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        """Blocked ``P^T X`` through the cached transpose."""
        return self._transpose().dot(X)

    def diagonal(self) -> np.ndarray:
        return self.P.diagonal()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.P.sum(axis=1)).ravel()

    def to_csr(self) -> sp.csr_matrix:
        return self.P

    def structure_token(self):
        """Value-free structure identity inherited from the source chain.

        ``None`` for plain matrices; :func:`as_operator` propagates a
        :class:`~repro.markov.chain.MarkovChain`'s builder-set token so
        structural digests agree no matter which wrapper a call site
        hands around.
        """
        return self._structure_token

    def triplets(self):
        """The stored entries as one ``(rows, cols, vals)`` chunk, CSR order."""
        P = self.P
        rows = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
        yield rows, P.indices, P.data

    def __repr__(self) -> str:
        return f"AssembledOperator(n={self.shape[0]}, nnz={self.nnz})"


def as_operator(obj) -> TransitionOperator:
    """Coerce any supported TPM representation to a :class:`TransitionOperator`.

    Accepts a :class:`~repro.markov.chain.MarkovChain`, a sparse matrix, a
    dense ndarray (all wrapped in :class:`AssembledOperator`), or anything
    already satisfying the protocol (returned unchanged).
    """
    if isinstance(obj, AssembledOperator):
        return obj
    if isinstance(obj, MarkovChain):
        return AssembledOperator(obj.P, structure_token=obj.structure_token())
    if sp.issparse(obj):
        return AssembledOperator(obj.tocsr())
    if isinstance(obj, np.ndarray):
        return AssembledOperator(sp.csr_matrix(np.asarray(obj, dtype=float)))
    if (
        hasattr(obj, "matvec")
        and hasattr(obj, "rmatvec")
        and hasattr(obj, "shape")
    ):
        return obj
    raise TypeError(
        f"cannot interpret {type(obj).__name__!r} as a transition operator; "
        "expected a MarkovChain, a sparse/dense matrix, or an object with "
        "matvec/rmatvec/shape"
    )


def unwrap_operator(op):
    """Strip profiling wrappers, returning the underlying operator.

    :class:`~repro.obs.profile.InstrumentedOperator` forwards only the
    protocol methods, so structural interrogation (coarsening factories,
    structural digests) must reach the real operator underneath.
    """
    while hasattr(op, "inner") and hasattr(op, "role"):
        op = op.inner
    return op


def ensure_csr(obj) -> sp.csr_matrix:
    """Explicit CSR form of any operator, or a clear capability error.

    Solvers that need the assembled sparsity pattern (direct LU,
    triangular-sweep methods, ARPACK, ILU preconditioning) call this; an
    operator without ``to_csr()`` raises :class:`OperatorCapabilityError`
    naming the fix.
    """
    if isinstance(obj, MarkovChain):
        return obj.P
    if sp.issparse(obj):
        return obj.tocsr()
    if isinstance(obj, np.ndarray):
        return sp.csr_matrix(np.asarray(obj, dtype=float))
    to_csr = getattr(obj, "to_csr", None)
    if to_csr is None:
        raise OperatorCapabilityError(
            f"{type(obj).__name__} cannot materialize an explicit CSR matrix; "
            "this solver needs the assembled sparsity pattern -- use a "
            "matrix-free solver (power, jacobi, krylov, multigrid) or an "
            "operator that implements to_csr()"
        )
    return to_csr()


def operator_matmat(op: TransitionOperator, V: np.ndarray) -> np.ndarray:
    """Blocked ``P V``, using the operator's native ``matmat`` when it has one.

    Backends without a blocked apply get a column-at-a-time fallback, so
    solvers can be written against blocks unconditionally.
    """
    matmat = getattr(op, "matmat", None)
    if matmat is not None:
        return matmat(V)
    V = np.asarray(V, dtype=float)
    return np.stack([op.matvec(V[:, j]) for j in range(V.shape[1])], axis=1)


def operator_rmatmat(op: TransitionOperator, X: np.ndarray) -> np.ndarray:
    """Blocked ``P^T X`` with the same native-or-fallback contract."""
    rmatmat = getattr(op, "rmatmat", None)
    if rmatmat is not None:
        return rmatmat(X)
    X = np.asarray(X, dtype=float)
    return np.stack([op.rmatvec(X[:, j]) for j in range(X.shape[1])], axis=1)


def operator_residual(op: TransitionOperator, x: np.ndarray) -> float:
    """1-norm stationary residual ``||x P - x||_1`` through the operator."""
    return float(np.abs(op.rmatvec(x) - x).sum())
