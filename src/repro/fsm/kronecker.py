"""Kronecker (stochastic-automata-network) descriptor representation.

For solving "more complex models, we are looking into using hierarchical
generalized Kronecker-algebra ... representations" (paper, Numerical
Methods; Plateau 1985, Buchholz 1999).  The idea: the global TPM of a
network of weakly-interacting components is a sum of Kronecker products of
small per-component matrices, so the matrix never needs to be formed --
matrix-vector products are computed factor-by-factor with the *shuffle
algorithm* in ``O(n * sum_i n_i)`` instead of ``O(n^2)`` (or the memory of
an explicit sparse matrix).

:class:`KroneckerDescriptor` implements the descriptor, its transpose
matvec (what stationary solvers need), conversion to an explicit sparse
matrix (for verification on small models), and a
:class:`scipy.sparse.linalg.LinearOperator` view so the iterative solvers
can run matrix-free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from repro.obs import get_registry, span

__all__ = [
    "KroneckerDescriptor",
    "kron_matvec",
    "kron_matmat",
    "synchronous_product",
]

Matrix = Union[np.ndarray, sp.spmatrix]


def _as_sparse(m: Matrix) -> sp.csr_matrix:
    return m.tocsr() if sp.issparse(m) else sp.csr_matrix(np.asarray(m, dtype=float))


def kron_matvec(factors: Sequence[sp.csr_matrix], v: np.ndarray) -> np.ndarray:
    """Compute ``(A_1 (x) A_2 (x) ... (x) A_K) v`` without forming the product.

    The shuffle algorithm: reshape ``v`` into a K-way tensor and contract
    one factor at a time.  Factors may be rectangular.
    """
    in_dims = [A.shape[1] for A in factors]
    if v.size != int(np.prod(in_dims)):
        raise ValueError(
            f"vector of size {v.size} incompatible with factor dims {in_dims}"
        )
    x = np.asarray(v, dtype=float).reshape(in_dims)
    for axis, A in enumerate(factors):
        x = np.moveaxis(x, axis, 0)
        head, rest = x.shape[0], x.shape[1:]
        x = A.dot(x.reshape(head, -1))
        x = np.asarray(x).reshape((A.shape[0],) + rest)
        x = np.moveaxis(x, 0, axis)
    return x.ravel()


def kron_matmat(factors: Sequence[sp.csr_matrix], V: np.ndarray) -> np.ndarray:
    """Blocked shuffle algorithm: ``(A_1 (x) ... (x) A_K) V`` for ``(n, k)``.

    The column axis rides along as one extra (never-contracted) trailing
    tensor axis, so each factor is still applied once -- the factor/index
    traffic is amortized over all ``k`` columns instead of repeating the
    full shuffle per column.
    """
    in_dims = [A.shape[1] for A in factors]
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != int(np.prod(in_dims)):
        raise ValueError(
            f"block of shape {V.shape} incompatible with factor dims {in_dims}"
        )
    k = V.shape[1]
    x = V.reshape(in_dims + [k])
    for axis, A in enumerate(factors):
        x = np.moveaxis(x, axis, 0)
        head, rest = x.shape[0], x.shape[1:]
        x = A.dot(x.reshape(head, -1))
        x = np.asarray(x).reshape((A.shape[0],) + rest)
        x = np.moveaxis(x, 0, axis)
    return x.reshape(-1, k)


class KroneckerDescriptor:
    """A matrix represented as ``sum_t c_t * (A_{t,1} (x) ... (x) A_{t,K})``.

    All terms must share the same per-component dimensions.  The
    represented matrix is square when every factor is square.
    """

    def __init__(self, component_dims: Sequence[int]) -> None:
        dims = [int(d) for d in component_dims]
        if not dims or any(d < 1 for d in dims):
            raise ValueError("component dims must be positive")
        self._dims = dims
        self._terms: List[Tuple[float, List[sp.csr_matrix]]] = []
        self._termsT: Optional[List[Tuple[float, List[sp.csr_matrix]]]] = None

    @property
    def component_dims(self) -> List[int]:
        return list(self._dims)

    @property
    def n(self) -> int:
        """Global dimension (product of component dims)."""
        return int(np.prod(self._dims))

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    def add_term(self, factors: Sequence[Matrix], coefficient: float = 1.0) -> "KroneckerDescriptor":
        """Append a term ``coefficient * kron(*factors)``.

        Every factor must be square with the declared component dimension.
        """
        if len(factors) != len(self._dims):
            raise ValueError(
                f"expected {len(self._dims)} factors, got {len(factors)}"
            )
        mats = []
        for k, (f, d) in enumerate(zip(factors, self._dims)):
            A = _as_sparse(f)
            if A.shape != (d, d):
                raise ValueError(
                    f"factor {k} has shape {A.shape}, expected ({d}, {d})"
                )
            mats.append(A)
        self._terms.append((float(coefficient), mats))
        self._termsT = None
        return self

    def _transposed_terms(self) -> List[Tuple[float, List[sp.csr_matrix]]]:
        """Per-term transposed factors, cached.

        ``rmatvec`` used to rebuild ``A.T.tocsr()`` for every factor on
        *every* application -- an O(nnz) conversion tax paid thousands of
        times per stationary solve.  Now the transposes are computed once
        and invalidated by :meth:`add_term`.
        """
        if self._termsT is None:
            self._termsT = [
                (coeff, [A.T.tocsr() for A in mats])
                for coeff, mats in self._terms
            ]
        return self._termsT

    # ------------------------------------------------------------------ #
    # linear algebra
    # ------------------------------------------------------------------ #

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``M v``."""
        v = np.asarray(v, dtype=float)
        out = np.zeros(self.n)
        for coeff, mats in self._terms:
            out += coeff * kron_matvec(mats, v)
        return out

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``M^T x`` (what power iteration on a row vector needs)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.n)
        for coeff, mats in self._transposed_terms():
            out += coeff * kron_matvec(mats, x)
        return out

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """Blocked ``M V`` via :func:`kron_matmat` (one shuffle per term)."""
        V = np.asarray(V, dtype=float)
        out = np.zeros((self.n, V.shape[1]))
        for coeff, mats in self._terms:
            out += coeff * kron_matmat(mats, V)
        return out

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        """Blocked ``M^T X`` through the cached transposed factors."""
        X = np.asarray(X, dtype=float)
        out = np.zeros((self.n, X.shape[1]))
        for coeff, mats in self._transposed_terms():
            out += coeff * kron_matmat(mats, X)
        return out

    def as_linear_operator(self) -> LinearOperator:
        """A scipy ``LinearOperator`` view (matvec and rmatvec)."""
        return LinearOperator(
            self.shape, matvec=self.matvec, rmatvec=self.rmatvec,
            matmat=self.matmat, rmatmat=self.rmatmat, dtype=float,
        )

    def diagonal(self) -> np.ndarray:
        """``diag(M)`` -- the Kronecker product of the factor diagonals."""
        out = np.zeros(self.n)
        for coeff, mats in self._terms:
            d = np.array([1.0])
            for A in mats:
                d = np.kron(d, A.diagonal())
            out += coeff * d
        return out

    def row_sums(self) -> np.ndarray:
        """``M 1`` -- the Kronecker product of the factor row sums."""
        out = np.zeros(self.n)
        for coeff, mats in self._terms:
            s = np.array([1.0])
            for A in mats:
                s = np.kron(s, np.asarray(A.sum(axis=1)).ravel())
            out += coeff * s
        return out

    def to_sparse(self) -> sp.csr_matrix:
        """Materialize the full matrix (verification on small models only)."""
        if self.n > 100_000:
            raise ValueError("descriptor too large to materialize")
        out = sp.csr_matrix(self.shape)
        for coeff, mats in self._terms:
            term = mats[0]
            for A in mats[1:]:
                term = sp.kron(term, A, format="csr")
            out = out + coeff * term
        return out.tocsr()

    def to_csr(self) -> sp.csr_matrix:
        """TransitionOperator-protocol materialization.

        Same as :meth:`to_sparse`, but the size guard raises
        :class:`~repro.markov.linop.OperatorCapabilityError` so solvers
        that need the assembled matrix fail with a clear capability message
        instead of a generic ``ValueError``.
        """
        if self.n > 100_000:
            from repro.markov.linop import OperatorCapabilityError

            raise OperatorCapabilityError(
                f"Kronecker descriptor with n={self.n} is too large to "
                "materialize; use a matrix-free solver (power, jacobi, "
                "krylov, multigrid)"
            )
        return self.to_sparse()

    def triplets(self):
        """The matrix's entries as per-term ``(rows, cols, vals)`` chunks.

        Each term's Kronecker product is expanded on its own, so the full
        sum never exists as one matrix; that is all
        :func:`~repro.markov.lumping.lumped_tpm` needs to build a Galerkin
        coarse operator.  Terms overlap, so the chunks are not in CSR order.
        """
        for coeff, mats in self._terms:
            term = mats[0]
            for A in mats[1:]:
                term = sp.kron(term, A, format="coo")
            term = term.tocoo()
            yield term.row, term.col, coeff * term.data

    def structure_token(self):
        """Hashable structure identity: factor sparsity patterns only.

        Coefficients and factor *values* are excluded (they carry the
        noise parameters); the per-term factor shapes and index patterns
        are the structure.  Used by
        :func:`repro.markov.context.structural_digest`.
        """
        import hashlib

        h = hashlib.sha256()
        for _, mats in self._terms:
            for A in mats:
                A = A.tocsr()
                h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
                h.update(np.ascontiguousarray(A.indptr).tobytes())
                h.update(np.ascontiguousarray(A.indices).tobytes())
        return ("kronecker", tuple(self._dims), self.n_terms, h.hexdigest())

    def power_iteration_stationary(
        self,
        tol: float = 1e-10,
        max_iter: int = 100_000,
        x0: Optional[np.ndarray] = None,
        damping: float = 1.0,
    ) -> Tuple[np.ndarray, int, float]:
        """Matrix-free power iteration for a *stochastic* descriptor.

        Returns ``(stationary, iterations, residual)``.  The descriptor
        must represent a row-stochastic matrix (e.g. built via
        :func:`synchronous_product`).
        """
        if not 0.0 < damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        n = self.n
        x = np.full(n, 1.0 / n) if x0 is None else np.asarray(x0, dtype=float) / np.sum(x0)
        res = np.inf
        it = 0
        with span(
            "fsm.kron.power_iteration", n_states=n, n_terms=self.n_terms
        ) as kron_span:
            for it in range(1, max_iter + 1):
                y = self.rmatvec(x)
                if damping != 1.0:
                    y = damping * y + (1.0 - damping) * x
                y /= y.sum()
                res = float(np.abs(self.rmatvec(y) - y).sum())
                x = y
                if res < tol:
                    break
            kron_span.set_attributes(iterations=it, residual=res)
        get_registry().counter(
            "repro_kron_matvecs_total",
            "Matrix-free Kronecker descriptor applications",
        ).inc(2 * it)
        return x, it, res


def synchronous_product(tpms: Sequence[Matrix]) -> KroneckerDescriptor:
    """Descriptor of independent components stepping synchronously.

    The joint TPM of independent chains is the single Kronecker term
    ``P_1 (x) ... (x) P_K``; its stationary vector is the Kronecker product
    of the component stationary vectors (tested property).
    """
    mats = [_as_sparse(t) for t in tpms]
    if not mats:
        raise ValueError("need at least one component")
    desc = KroneckerDescriptor([m.shape[0] for m in mats])
    desc.add_term(mats)
    return desc
