"""State lumping (aggregation of Markov chains onto partitions).

Section "Numerical Methods" of the paper builds its multigrid method on the
*lumpability* concepts of Kemeny & Snell: partition the ``N`` states into
``n << N`` blocks and study the induced process on block labels.  The
induced process is Markov for *every* initial distribution only when the
chain is *ordinarily lumpable* (equal block-to-block row sums within each
block); it is Markov for *some* initial distribution when the chain is
*weakly lumpable*.  Even when neither holds, the weighted aggregation of an
approximate stationary vector yields the coarse chains used by
aggregation/disaggregation and multigrid methods.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.markov.chain import MarkovChain
from repro.markov.linop import (
    AssembledOperator,
    OperatorCapabilityError,
    as_operator,
)
from repro.markov.solvers.jacobi import _inverse_diag

__all__ = [
    "Partition",
    "GalerkinPlan",
    "is_lumpable",
    "lump",
    "lumped_tpm",
    "entries_csr",
    "prepare_block_weights",
    "aggregate_distribution",
]


class Partition:
    """A partition of ``n`` states into ``n_blocks`` disjoint blocks.

    Stored as an assignment vector ``block_of[i] in [0, n_blocks)``.  Blocks
    must be non-empty and contiguous in index (0..n_blocks-1).
    """

    __slots__ = ("_block_of", "_n_blocks")

    def __init__(self, block_of: Union[Sequence[int], np.ndarray]) -> None:
        block_of = np.asarray(block_of, dtype=np.int64)
        if block_of.ndim != 1 or block_of.size == 0:
            raise ValueError("partition assignment must be a non-empty vector")
        if block_of.min() < 0:
            raise ValueError("block indices must be non-negative")
        n_blocks = int(block_of.max()) + 1
        counts = np.bincount(block_of, minlength=n_blocks)
        if np.any(counts == 0):
            raise ValueError("every block index up to the maximum must be used")
        self._block_of = block_of
        self._block_of.setflags(write=False)
        self._n_blocks = n_blocks

    @property
    def block_of(self) -> np.ndarray:
        return self._block_of

    @property
    def n_states(self) -> int:
        return self._block_of.size

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    def members(self, block: int) -> np.ndarray:
        """State indices in ``block``."""
        if not 0 <= block < self._n_blocks:
            raise ValueError("block out of range")
        return np.flatnonzero(self._block_of == block)

    def aggregation_matrix(self) -> sp.csr_matrix:
        """The ``n_states x n_blocks`` 0/1 membership matrix ``V``."""
        n = self.n_states
        data = np.ones(n)
        rows = np.arange(n)
        return sp.csr_matrix(
            (data, (rows, self._block_of)), shape=(n, self._n_blocks)
        )

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], n_states: int) -> "Partition":
        """Build from an explicit list of blocks."""
        assign = np.full(n_states, -1, dtype=np.int64)
        for b, members in enumerate(blocks):
            members = np.asarray(members, dtype=np.int64)
            if np.any(assign[members] != -1):
                raise ValueError("blocks overlap")
            assign[members] = b
        if np.any(assign == -1):
            raise ValueError("blocks do not cover all states")
        return cls(assign)

    @classmethod
    def identity(cls, n_states: int) -> "Partition":
        return cls(np.arange(n_states))

    @classmethod
    def pairs(cls, n_states: int) -> "Partition":
        """Pair consecutive states: ``{0,1}, {2,3}, ...`` (odd tail kept alone)."""
        return cls(np.arange(n_states) // 2)

    def __repr__(self) -> str:
        return f"Partition(n_states={self.n_states}, n_blocks={self.n_blocks})"


def _block_row_sums(P: sp.csr_matrix, partition: Partition) -> np.ndarray:
    """Dense ``n_states x n_blocks`` matrix of row sums into each block."""
    V = partition.aggregation_matrix()
    return np.asarray(P.dot(V).todense())


def is_lumpable(
    chain: MarkovChain, partition: Partition, atol: float = 1e-10
) -> bool:
    """Test ordinary (strong) lumpability of ``chain`` w.r.t. ``partition``.

    The chain is lumpable iff for every pair of blocks ``(I, J)`` the sum
    ``sum_{j in J} P[i, j]`` is the same for every ``i in I`` (Kemeny &
    Snell, Theorem 6.3.2).
    """
    if partition.n_states != chain.n_states:
        raise ValueError("partition size does not match chain size")
    S = _block_row_sums(chain.P, partition)
    for b in range(partition.n_blocks):
        members = partition.members(b)
        block_rows = S[members]
        if not np.allclose(block_rows, block_rows[0], rtol=0.0, atol=atol):
            return False
    return True


def prepare_block_weights(
    partition: Partition, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate aggregation weights and return ``(weights, block masses)``.

    Defaults to uniform weights; blocks whose total weight vanishes fall
    back to uniform intra-block weights so the coarse matrix stays
    stochastic.  Used by :func:`lumped_tpm` and by the AMG preconditioner,
    which also needs the block masses for its prolongation weights.
    """
    n = partition.n_states
    if weights is None:
        w = np.full(n, 1.0)
    else:
        w = np.asarray(weights, dtype=float).copy()
        if w.shape != (n,):
            raise ValueError("weights must have one entry per state")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    block = partition.block_of
    nb = partition.n_blocks
    block_mass = np.bincount(block, weights=w, minlength=nb)
    empty = block_mass <= 0.0
    if np.any(empty):
        counts = np.bincount(block, minlength=nb)
        w = w + np.where(empty[block], 1.0 / counts[block], 0.0)
        block_mass = np.bincount(block, weights=w, minlength=nb)
    return w, block_mass


def _csr_of(op) -> Optional[sp.csr_matrix]:
    """The CSR matrix behind an assembled operator, None for other operators."""
    return op.P if isinstance(op, AssembledOperator) else None


class GalerkinPlan:
    """The symbolic half of :func:`lumped_tpm`, computed once per pattern.

    Koury-McAllister-Stewart reweighting changes only the *values* of a
    weighted Galerkin coarse operator; its sparsity pattern depends only on
    the fine pattern and the partition.  A plan reads the level's entries
    once (a CSR matrix's own arrays, or an operator's ``triplets()``) and
    keeps:

    * the coarse CSR pattern (``indptr``, ``indices``);
    * an int32 coarse slot for every fine entry;
    * the transpose permutation and diagonal slots of the coarse pattern,
      from which :meth:`split` derives the coarse level's Jacobi splitting.

    :meth:`coarse` is then the numeric half: one sparse matvec
    ``slot-matrix^T @ w`` plus the ``1/mass`` row scale.  The values a
    CSR level contributes are read from the matrix passed to
    :meth:`coarse`, so a plan never holds a CSR level's values (multigrid's
    coarse levels get new values every cycle, never a new pattern); an
    operator's values are read with its entries, once.
    """

    __slots__ = (
        "partition", "shape", "indptr", "indices", "_counts", "_slot",
        "_fine_indptr", "_values", "_tperm", "_tindptr", "_tindices",
        "_tdiag", "_drow", "_dpos",
    )

    def __init__(self, P, partition: Partition) -> None:
        op = as_operator(P)
        n = op.shape[0]
        if partition.n_states != n:
            raise ValueError("partition size does not match matrix size")
        block = partition.block_of.astype(np.int32)
        csr = _csr_of(op)
        if csr is not None:
            fine_indptr = csr.indptr
            brow = np.repeat(block, np.diff(fine_indptr))
            bcol = block.take(csr.indices)
            self._values = None
        else:
            brow, bcol, fine_indptr, self._values = _read_triplets(op, block)
        nb = partition.n_blocks
        self.partition = partition
        self.shape = (nb, nb)
        pattern = sp.coo_matrix(
            (np.ones(brow.size, dtype=bool), (brow, bcol)), shape=self.shape
        ).tocsr()
        nnz = pattern.nnz
        # A same-pattern matrix whose values are their own slot numbers:
        # sampling it maps every fine entry to its coarse slot, and its
        # transpose's values are the transpose permutation.
        lookup = sp.csr_matrix(
            (np.arange(nnz, dtype=np.int32), pattern.indices, pattern.indptr),
            shape=self.shape,
        )
        self._slot = np.asarray(lookup[brow, bcol]).ravel()
        del brow, bcol
        self._fine_indptr = np.asarray(fine_indptr, dtype=np.int32)
        self.indptr, self.indices = pattern.indptr, pattern.indices
        self._counts = np.diff(self.indptr)
        T = lookup.T.tocsr()
        self._tperm, self._tindptr, self._tindices = T.data, T.indptr, T.indices
        blocks = np.arange(nb, dtype=np.int32)
        self._dpos = np.flatnonzero(
            self.indices == np.repeat(blocks, self._counts)
        )
        self._drow = self.indices[self._dpos]
        self._tdiag = np.flatnonzero(
            self._tindices == np.repeat(blocks, np.diff(self._tindptr))
        )
        for a in (self.indptr, self.indices, self._tindptr, self._tindices):
            a.setflags(write=False)

    @property
    def nnz(self) -> int:
        """Stored entries of the coarse pattern."""
        return int(self.indices.size)

    def coarse(self, P, weights: Optional[np.ndarray] = None) -> sp.csr_matrix:
        """The weighted coarse operator of ``P`` (the numeric half).

        ``P`` is the level the plan was built from, or a matrix with the
        same pattern.  The result shares the plan's (read-only) index
        arrays; only its ``data`` is new.
        """
        csr = _csr_of(as_operator(P))
        vals = self._values if csr is None else csr.data
        if vals is None or vals.size != self._slot.size:
            raise ValueError("matrix does not have the plan's fine pattern")
        w, block_mass = prepare_block_weights(self.partition, weights)
        n = self._fine_indptr.size - 1
        spread = sp.csr_matrix(
            (vals, self._slot, self._fine_indptr), shape=(n, self.nnz)
        )
        data = spread.T @ w
        data *= np.repeat(1.0 / block_mass, self._counts)
        C = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        C.has_canonical_format = True
        return C

    def split(self, C: sp.csr_matrix) -> Tuple[sp.csr_matrix, np.ndarray]:
        """Jacobi splitting of a coarse operator this plan built.

        Applies bit for bit like ``jacobi_split(C)``: the transposed
        off-diagonal factor has the same entries in the same order, with
        the diagonal stored as explicit zeros instead of removed.
        """
        data = C.data
        diag = np.zeros(self.shape[0])
        diag[self._drow] = data.take(self._dpos)
        tdata = data.take(self._tperm)
        tdata[self._tdiag] = 0.0
        off = sp.csr_matrix(
            (tdata, self._tindices, self._tindptr), shape=self.shape
        )
        off.has_canonical_format = True
        return off, _inverse_diag(diag)


def _read_triplets(op, block: np.ndarray):
    """Block coordinates, fine ``indptr`` and values of an operator's entries.

    Chunks are mapped to block coordinates as they arrive, so the fine
    matrix never exists; entries not in row order (overlapping Kronecker
    terms) are stably sorted by row once.
    """
    triplets = getattr(op, "triplets", None)
    if triplets is None:
        raise OperatorCapabilityError(
            f"{type(op).__name__} has no triplets(); Galerkin coarsening "
            "(multigrid, AMG) and survival iteration need the operator's "
            "entries"
        )
    rows, brow, bcol, vals = [], [], [], []
    for r, c, v in triplets():
        rows.append(r.astype(np.int32))
        # take(), not fancy indexing: several times faster on the int32
        # index arrays CSR matrices carry.
        brow.append(block.take(r))
        bcol.append(block.take(c))
        vals.append(np.asarray(v, dtype=float))
    rows, brow, bcol, vals = (
        p[0] if len(p) == 1 else np.concatenate(p)
        for p in (rows, brow, bcol, vals)
    )
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        rows, brow, bcol, vals = (a[order] for a in (rows, brow, bcol, vals))
    n = block.size
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return brow, bcol, indptr, vals


def lumped_tpm(
    P,
    partition: Partition,
    weights: Optional[np.ndarray] = None,
) -> sp.csr_matrix:
    """Weighted aggregation of ``P`` onto the partition.

    ``C[I, J] = sum_{i in I} w_i sum_{j in J} P[i, j] / sum_{i in I} w_i``.

    With ``weights`` equal to the stationary vector this is the *exact*
    lumped chain (its stationary vector is the aggregated stationary
    vector); with an approximate iterate it is the coarse operator used by
    aggregation/disaggregation and multigrid.  ``weights`` defaults to
    uniform.  Blocks whose total weight vanishes fall back to uniform
    intra-block weights so the coarse matrix stays stochastic.

    ``P`` is a sparse/dense matrix, a chain, or any transition operator
    with ``triplets()``: the one Galerkin restriction every backend and
    every multigrid level goes through.  This is the one-shot form of
    :class:`GalerkinPlan` -- plan the pattern, then one numeric pass;
    multigrid keeps the plan and repeats only the numeric pass each
    cycle.  The fine matrix never has to exist, and backends yield their
    entries in CSR order, so an operator and its ``to_csr()`` give
    bit-identical coarse matrices.
    """
    op = as_operator(P)
    return GalerkinPlan(op, partition).coarse(op, weights)


def entries_csr(P) -> sp.csr_matrix:
    """``P``'s explicit CSR matrix, read through the Galerkin restriction.

    An assembled level is returned as is.  An operator is lumped onto the
    identity partition with unit weights, which is exact (each entry is
    scaled by 1.0), so only ``triplets()`` is consumed -- never
    ``to_csr()``.  The AMG preconditioner and the generic coarsening
    strategies read unassembled levels this way.
    """
    op = as_operator(P)
    csr = _csr_of(op)
    if csr is not None:
        return csr
    return lumped_tpm(op, Partition.identity(op.shape[0]))


def lump(
    chain: MarkovChain,
    partition: Partition,
    weights: Optional[np.ndarray] = None,
    require_lumpable: bool = False,
    atol: float = 1e-10,
) -> MarkovChain:
    """Return the lumped chain on block labels.

    With ``require_lumpable=True`` raises :class:`ValueError` when the chain
    is not ordinarily lumpable with respect to the partition (in which case
    the lumped process is only an approximation whose quality depends on the
    supplied ``weights``).
    """
    if require_lumpable and not is_lumpable(chain, partition, atol=atol):
        raise ValueError("chain is not ordinarily lumpable w.r.t. the partition")
    C = lumped_tpm(chain.P, partition, weights)
    labels = None
    if chain.state_labels is not None:
        labels = [None] * partition.n_blocks
        for b in range(partition.n_blocks):
            members = partition.members(b)
            labels[b] = tuple(chain.state_labels[i] for i in members)
    return MarkovChain(C, state_labels=labels)


def aggregate_distribution(dist: np.ndarray, partition: Partition) -> np.ndarray:
    """Sum a state distribution over the blocks of the partition."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (partition.n_states,):
        raise ValueError("distribution size does not match partition")
    return np.bincount(partition.block_of, weights=dist, minlength=partition.n_blocks)
