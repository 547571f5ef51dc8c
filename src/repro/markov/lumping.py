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
from repro.markov.linop import OperatorCapabilityError, as_operator

__all__ = [
    "Partition",
    "is_lumpable",
    "lump",
    "lumped_tpm",
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
    every multigrid level goes through.  The fine matrix never has to
    exist -- each ``(rows, cols, vals)`` chunk is mapped to block
    coordinates as it arrives.  Backends yield their entries in CSR order,
    so an operator and its ``to_csr()`` give bit-identical coarse matrices.
    """
    op = as_operator(P)
    if partition.n_states != op.shape[0]:
        raise ValueError("partition size does not match matrix size")
    triplets = getattr(op, "triplets", None)
    if triplets is None:
        raise OperatorCapabilityError(
            f"{type(op).__name__} has no triplets(); Galerkin coarsening "
            "(multigrid, AMG) needs the operator's entries"
        )
    w, block_mass = prepare_block_weights(partition, weights)
    nb = partition.n_blocks
    block = partition.block_of.astype(np.int32)
    brow, bcol, bval = [], [], []
    for rows, cols, vals in triplets():
        # take(), not fancy indexing: several times faster on the int32
        # index arrays CSR matrices carry.
        brow.append(block.take(rows))
        bcol.append(block.take(cols))
        bval.append(w.take(rows) * vals)

    def cat(parts):  # a single chunk (CSR input) needs no copy
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    C = sp.coo_matrix(
        (cat(bval), (cat(brow), cat(bcol))), shape=(nb, nb)
    ).tocsr()
    C.sum_duplicates()
    return sp.diags(1.0 / block_mass).dot(C).tocsr()


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
