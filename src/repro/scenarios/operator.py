"""A generic matrix-free operator for branch-structured chains.

The CDR chains in this codebase share one shape: every transition is a
*branch* -- "with probability ``w_b(i)``, state ``i`` moves to the single
destination ``dest_b(i)``" -- and the TPM is the superposition

    P = sum_b diag(w_b) S_b,        (S_b)[i, dest_b(i)] = 1.

:class:`repro.cdr.operator.CDRTransitionOperator` hand-optimizes this for
the paper's phase-selection loop; this module provides the general form
so *new* scenario chains (the bang-bang loop with a frequency-error
dimension, and anything later sessions register) get a matrix-free
backend for free: implement the branch enumeration once and both the
``assembled`` realization (:meth:`BranchSumOperator.to_csr`) and the
matrix-free one (``matvec``/``rmatvec`` from the terms alone, ``O(n)``
memory) fall out of the same data -- identical by construction, which is
exactly what cross-backend golden verification wants.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kernels import BranchPlan, as_apply_block, as_apply_vector, get_kernel

__all__ = ["BranchSumOperator"]


class BranchSumOperator:
    """Transition operator assembled from ``(weights, destinations)`` terms.

    Parameters
    ----------
    n:
        State count.
    terms:
        Sequence of ``(weights, dest)`` pairs; ``weights`` is a float
        array of shape ``(n,)`` (zeros allowed -- the branch simply does
        not fire from those states) and ``dest`` an int array of shape
        ``(n,)`` with entries in ``[0, n)``.  Rows must sum to one across
        terms (checked on construction to ``validate_atol``).
    """

    def __init__(
        self,
        n: int,
        terms: Sequence[Tuple[np.ndarray, np.ndarray]],
        validate_atol: float = 1e-9,
    ) -> None:
        if n < 1:
            raise ValueError("operator needs at least one state")
        if not terms:
            raise ValueError("operator needs at least one branch term")
        self.n = int(n)
        compiled: List[Tuple[np.ndarray, np.ndarray]] = []
        for weights, dest in terms:
            w = np.ascontiguousarray(weights, dtype=float)
            d = np.ascontiguousarray(dest, dtype=np.intp)
            if w.shape != (self.n,) or d.shape != (self.n,):
                raise ValueError(
                    f"each term needs shape ({self.n},) weights and dests"
                )
            if np.any(w < 0.0):
                raise ValueError("branch weights must be non-negative")
            if d.min() < 0 or d.max() >= self.n:
                raise ValueError("branch destination out of range")
            if not np.any(w):
                continue  # an everywhere-dead branch contributes nothing
            compiled.append((w, d))
        if not compiled:
            raise ValueError("all branch terms have zero weight")
        self._terms = compiled
        self._plan = BranchPlan(self.n, compiled)
        self._kernel = get_kernel()
        rows = np.zeros(self.n)
        for w, _ in compiled:
            rows += w
        worst = float(np.abs(rows - 1.0).max())
        if worst > validate_atol:
            raise ValueError(
                f"branch weights are not row-stochastic "
                f"(worst row-sum error {worst:.3e})"
            )
        rows.flags.writeable = False
        self._row_sums = rows
        self._diag: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # TransitionOperator protocol
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def kernel_tier(self) -> str:
        """Name of the kernel tier this operator applies through."""
        return self._kernel.name

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``P v``: each state gathers its branch destinations' values.

        Applied through the compiled branch plan's CSR gather arrays --
        bit-identical to ``to_csr() @ v`` on every kernel tier.
        """
        v = as_apply_vector(v, self.n)
        out = np.zeros(self.n)
        self._kernel.csr_apply(self._plan.gather, v, out)
        return out

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``P^T x``: distribution mass scattered along every branch.

        The scatter runs as a sequential CSR pass over destination-sorted
        entries (bit-identical to ``to_csr().T @ x``) rather than the old
        per-term ``np.add.at``, which paid a Python-level fancy-index
        dispatch on every apply.
        """
        x = as_apply_vector(x, self.n)
        out = np.zeros(self.n)
        self._kernel.csr_apply(self._plan.scatter, x, out)
        return out

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """``P V`` for an ``(n, k)`` block; columns match :meth:`matvec`."""
        V = as_apply_block(V, self.n)
        out = np.zeros_like(V)
        self._kernel.csr_apply(self._plan.gather, V, out)
        return out

    def rmatmat(self, X: np.ndarray) -> np.ndarray:
        """``P^T X`` for an ``(n, k)`` block; columns match :meth:`rmatvec`."""
        X = as_apply_block(X, self.n)
        out = np.zeros_like(X)
        self._kernel.csr_apply(self._plan.scatter, X, out)
        return out

    def diagonal(self) -> np.ndarray:
        """``diag(P)``, computed once and cached readonly."""
        if self._diag is None:
            idx = np.arange(self.n)
            diag = np.zeros(self.n)
            for w, d in self._terms:
                stay = d == idx
                diag[stay] += w[stay]
            diag.flags.writeable = False
            self._diag = diag
        return self._diag

    def row_sums(self) -> np.ndarray:
        """Per-state branch-weight totals (cached from construction).

        Validation already summed the terms once in ``__init__``; callers
        get that readonly vector back instead of a fresh O(n_terms * n)
        summation per call.
        """
        return self._row_sums

    def triplets(self):
        """The matrix's entries as one canonical-CSR ``(rows, cols, vals)``.

        The branch plan's gather arrays, the same ones :meth:`to_csr` is
        built from -- what lets matrix-free multigrid and the AMG
        preconditioner coarsen scenario chains (via
        :func:`~repro.markov.lumping.lumped_tpm`) without the fine TPM.
        """
        return self._plan.triplets()

    def structure_token(self):
        """Hashable structure identity: destinations, not probabilities.

        Branch weights are values (they move under parameter sweeps);
        the destination maps are the chain's topology.  Used by
        :func:`repro.markov.context.structural_digest` to key cached
        coarsening hierarchies.
        """
        h = hashlib.sha256()
        for _, d in self._terms:
            h.update(np.ascontiguousarray(d).tobytes())
        return ("branch-sum", self.n, self.n_terms, h.hexdigest())

    def to_csr(self) -> sp.csr_matrix:
        """Materialize the identical TPM the terms describe.

        Built straight from the branch plan's canonical gather arrays
        (sorted, duplicate-merged), so the assembled matrix and the
        matrix-free kernels agree bit for bit by construction.
        """
        g = self._plan.gather
        return sp.csr_matrix(
            (g.vals.copy(), g.cols.copy(), g.indptr.copy()),
            shape=(self.n, self.n),
        )

    def __repr__(self) -> str:
        return f"BranchSumOperator(n={self.n}, terms={self.n_terms})"
