"""Coalesced kernel plans for the structural operators.

The matrix-free hot path used to be a Python loop over the raw output of
``CDRTransitionOperator._compile_terms()`` -- one ``np.roll`` (a full
allocate-and-concatenate) plus a multiply and an add per term, with the
same ``(src, dst, shift)`` triple visited once per (decision, drift,
branch) combination that produced it.  A :class:`RollPlan` compiles those
terms once, at operator construction, into the form the kernel tiers
(:mod:`repro.kernels`) consume:

* **Coalescing** -- terms sharing ``(src_block, dst_block, shift mod M)``
  are merged.  Same decision-mass vector: the scalars are summed.
  Different mass vectors (possible for saturating counters, where two
  decisions can reach the same destination with the same net shift): the
  weighted sum is materialized as one dense weight row.  Either way each
  surviving term is a single ``(q_row, scale)`` pair, so the kernel does
  one multiply-accumulate pass per term.
* **Factored weights** -- per-phase weights are stored as ``scale *
  Q[q_row]`` against a tiny shared table ``Q`` (the three decision-mass
  vectors, a ones row, plus any merged rows).  Memory stays ``O(M + K)``,
  not ``O(nnz)``: the plan does not re-materialize the matrix it exists
  to avoid, and the weight table fits in L1/L2 cache, so a kernel apply
  streams only the input and output vectors.
* **Segments** -- each circular roll is split into at most two contiguous
  slices (the wrapped and non-wrapped ranges), trimmed to the weight
  row's nonzero support, so the kernels run plain strided loops with no
  modular indexing.
* **CSR accumulation order** -- segments are sorted so that every output
  element receives its contributions in ascending source-column order,
  which is exactly the order ``scipy`` CSR matvec sums a row in.  That is
  what makes every kernel tier *bit-identical* to applying
  ``to_csr()`` / its transpose (a test invariant), not merely close.

:class:`BranchPlan` does the analogous compilation for
:class:`~repro.scenarios.operator.BranchSumOperator`: the per-branch
``(weights, dest)`` arrays are flattened, zero-weight entries dropped,
duplicates merged, and the result sorted into explicit CSR index arrays
for the gather (``P v``) and scatter (``P^T x``) directions -- replacing
the ``np.add.at`` scatter (notoriously slow: one Python-level fancy-index
dispatch per apply) with a sequential CSR pass that is bit-identical to
the assembled backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["SegmentSet", "RollPlan", "CSRArrays", "BranchPlan"]


class _Bindable:
    """A plan table whose arrays a kernel tier may bind once.

    ``c_args`` holds the compiled tier's bound arguments: raw buffer
    addresses, valid only for this object's arrays in this process.
    Pickling and copying therefore drop it, and the copy binds its own.
    """

    __slots__ = ("c_args",)

    def __getstate__(self):
        return {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
            if name != "c_args" and hasattr(self, name)
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.c_args = None


class SegmentSet(_Bindable):
    """One apply direction's segment table, in CSR accumulation order.

    A segment applies, for ``m`` in ``[a, b)``::

        out[orow * M + m] += (scale * Q[qrow, m + woff]) * x[irow * M + m + xoff]

    All arrays are parallel, C-contiguous and int64/float64 so the
    compiled tier can consume their raw buffers directly.  They are never
    modified after construction, so each tier may cache what it derives
    from them: :meth:`rows` for the NumPy tier, ``c_args`` (the bound
    buffer addresses, set on first apply) for the compiled tier.
    """

    __slots__ = (
        "orow", "irow", "qrow", "scale", "a", "b", "xoff", "woff",
        "n_segments", "_rows",
    )

    def __init__(self, rows: Sequence[Tuple[int, int, int, float, int, int, int, int]]) -> None:
        cols = list(zip(*rows)) if rows else [[]] * 8
        self.orow = np.ascontiguousarray(cols[0], dtype=np.int64)
        self.irow = np.ascontiguousarray(cols[1], dtype=np.int64)
        self.qrow = np.ascontiguousarray(cols[2], dtype=np.int64)
        self.scale = np.ascontiguousarray(cols[3], dtype=np.float64)
        self.a = np.ascontiguousarray(cols[4], dtype=np.int64)
        self.b = np.ascontiguousarray(cols[5], dtype=np.int64)
        self.xoff = np.ascontiguousarray(cols[6], dtype=np.int64)
        self.woff = np.ascontiguousarray(cols[7], dtype=np.int64)
        self.n_segments = len(rows)
        self._rows: Optional[List[Tuple]] = None
        self.c_args: Optional[Tuple] = None

    def rows(self) -> List[Tuple]:
        """Plain-Python tuples for the NumPy tier's segment loop (cached)."""
        if self._rows is None:
            self._rows = list(
                zip(
                    self.orow.tolist(), self.irow.tolist(), self.qrow.tolist(),
                    self.scale.tolist(), self.a.tolist(), self.b.tolist(),
                    self.xoff.tolist(), self.woff.tolist(),
                )
            )
        return self._rows


class RollPlan:
    """Coalesced block-roll terms plus per-direction segment tables.

    Built once per operator from the raw ``_compile_terms()`` output;
    ``scatter`` drives ``rmatvec``/``rmatmat`` (out-block = destination),
    ``gather`` drives ``matvec``/``matmat`` (out-block = source).
    """

    __slots__ = (
        "M", "n_blocks", "n", "q", "src", "dst", "shift", "qrow", "scale",
        "n_terms", "n_input_terms", "scatter", "gather",
    )

    def __init__(self, terms, n_blocks: int, M: int) -> None:
        self.M = int(M)
        self.n_blocks = int(n_blocks)
        self.n = self.n_blocks * self.M
        self.n_input_terms = len(terms)
        q_rows: List[np.ndarray] = [np.ones(M)]
        q_index: Dict[int, int] = {}

        def row_of(q_vec) -> int:
            if q_vec is None:
                return 0
            key = id(q_vec)
            row = q_index.get(key)
            if row is None:
                row = q_index[key] = len(q_rows)
                q_rows.append(np.ascontiguousarray(q_vec, dtype=np.float64))
            return row

        # Group the raw terms by (src, dst, shift mod M), preserving
        # emission order inside each group so merged values accumulate in
        # a deterministic order.
        groups: Dict[Tuple[int, int, int], List[Tuple[int, float]]] = {}
        for src, dst, shift, q_vec, scalar in terms:
            groups.setdefault((src, dst, shift % M), []).append(
                (row_of(q_vec), float(scalar))
            )

        src_l: List[int] = []
        dst_l: List[int] = []
        shift_l: List[int] = []
        qrow_l: List[int] = []
        scale_l: List[float] = []
        for (src, dst, s), parts in groups.items():
            # Same mass vector: sum the scalars (CSR would sum the
            # duplicate entries; to_csr() below builds from these merged
            # values, so plan and matrix stay bit-consistent).
            combined: List[Tuple[int, float]] = []
            for qrow, scalar in parts:
                for i, (qr, sc) in enumerate(combined):
                    if qr == qrow:
                        combined[i] = (qr, sc + scalar)
                        break
                else:
                    combined.append((qrow, scalar))
            if len(combined) == 1:
                qrow, scalar = combined[0]
                if scalar == 0.0:
                    continue
            else:
                # Distinct mass vectors collapsing onto one (src, dst,
                # shift): materialize the merged weight row so the kernel
                # still does a single multiply-accumulate for this term.
                merged = np.zeros(M)
                for qr, sc in combined:
                    merged += sc * q_rows[qr]
                if not np.any(merged):
                    continue
                qrow, scalar = len(q_rows), 1.0
                q_rows.append(merged)
            src_l.append(src)
            dst_l.append(dst)
            shift_l.append(s)
            qrow_l.append(qrow)
            scale_l.append(scalar)

        self.q = np.ascontiguousarray(np.stack(q_rows), dtype=np.float64)
        self.src = np.asarray(src_l, dtype=np.int64)
        self.dst = np.asarray(dst_l, dtype=np.int64)
        self.shift = np.asarray(shift_l, dtype=np.int64)
        self.qrow = np.asarray(qrow_l, dtype=np.int64)
        self.scale = np.asarray(scale_l, dtype=np.float64)
        self.n_terms = len(src_l)

        # Nonzero support [lo, hi) of each weight row.  Segments are
        # trimmed to it, so the explicit zeros CSR eliminates are (for
        # the contiguous supports the decision masses actually have)
        # never touched by the kernels either.
        lo = np.zeros(len(q_rows), dtype=np.int64)
        hi = np.zeros(len(q_rows), dtype=np.int64)
        for i, row in enumerate(q_rows):
            nz = np.flatnonzero(row)
            if nz.size:
                lo[i], hi[i] = int(nz[0]), int(nz[-1]) + 1
        self.scatter = self._build_segments(lo, hi, transpose=True)
        self.gather = self._build_segments(lo, hi, transpose=False)

    def _build_segments(self, lo, hi, transpose: bool) -> SegmentSet:
        M = self.M
        rows: List[Tuple[int, int, int, float, int, int, int, int]] = []
        for k in range(self.n_terms):
            src = int(self.src[k])
            dst = int(self.dst[k])
            s = int(self.shift[k])
            qrow = int(self.qrow[k])
            scale = float(self.scale[k])
            l, h = int(lo[qrow]), int(hi[qrow])
            if l >= h:
                continue
            if transpose:
                # out[dst, m] += w[m + d] * x[src, m + d]; weight index
                # equals the source phase, so the support trim shifts by d.
                pieces = [(s, M, -s), (0, s, M - s)] if s else [(0, M, 0)]
                for a, b, d in pieces:
                    aa, bb = max(a, l - d), min(b, h - d)
                    if aa < bb:
                        rows.append((dst, src, qrow, scale, aa, bb, d, d))
            else:
                # out[src, m] += w[m] * v[dst, m + d]; weight indexed by
                # the output phase directly.
                pieces = [(0, M - s, s), (M - s, M, s - M)] if s else [(0, M, 0)]
                for a, b, d in pieces:
                    aa, bb = max(a, l), min(b, h)
                    if aa < bb:
                        rows.append((src, dst, qrow, scale, aa, bb, d, 0))
        # CSR accumulation order: for any fixed output element, ascending
        # source column is (input block, then column offset d) -- exactly
        # the order a canonical CSR row is summed in.
        rows.sort(key=lambda r: (r[0], r[1], r[6]))
        return SegmentSet(rows)

    def triplets(self):
        """Yield the matrix's ``(rows, cols, vals)``, one source block per chunk.

        Read straight off the ``gather`` table, which is already in CSR
        accumulation order: walking a source block's segments over their
        valid phases column-major (phase, then segment) visits each row's
        entries in ascending column order, so no sort is needed.  Values
        are the plan's merged ``scale * Q[qrow]`` weights (``woff`` is 0 in
        this direction) with explicit zeros dropped.
        """
        g, M = self.gather, self.M
        phase = np.arange(M)[:, None]
        bounds = np.searchsorted(g.orow, np.arange(self.n_blocks + 1))
        for blk in range(self.n_blocks):
            s = slice(bounds[blk], bounds[blk + 1])
            vals = (g.scale[s, None] * self.q[g.qrow[s]]).T
            keep = (phase >= g.a[s]) & (phase < g.b[s]) & (vals != 0.0)
            rows = np.broadcast_to(blk * M + phase, keep.shape)[keep]
            cols = (g.irow[s] * M + g.xoff[s] + phase)[keep]
            yield rows, cols, vals[keep]

    def to_csr(self) -> sp.csr_matrix:
        """The explicit matrix the plan describes (O(nnz) memory).

        Assembled from :meth:`triplets`, so the matrix and the Galerkin
        coarse operators are one code path, and the kernels' accumulation
        reproduces this matrix's application bit-for-bit (given the
        CSR-order segment sort above).
        """
        rows, cols, vals = (np.concatenate(c) for c in zip(*self.triplets()))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return sp.csr_matrix((vals, cols, indptr), shape=(self.n, self.n))

    @property
    def n_segments(self) -> int:
        return self.scatter.n_segments + self.gather.n_segments

    def __repr__(self) -> str:
        return (
            f"RollPlan(n={self.n}, terms={self.n_terms} of "
            f"{self.n_input_terms} raw, q_rows={self.q.shape[0]}, "
            f"segments={self.n_segments})"
        )


class CSRArrays(_Bindable):
    """Explicit CSR index arrays for one branch-apply direction.

    ``rows`` repeats the row index per stored entry (what the NumPy
    tier's ``np.bincount`` accumulation consumes); the compiled tier uses
    ``indptr`` directly and caches the arrays' bound addresses in
    ``c_args`` on first apply (the arrays are never modified).
    """

    __slots__ = ("indptr", "cols", "vals", "rows", "n_rows")

    def __init__(self, major: np.ndarray, minor: np.ndarray, vals: np.ndarray, n: int) -> None:
        order = np.lexsort((minor, major))
        maj = major[order]
        mino = minor[order]
        v = vals[order]
        if maj.size:
            dup = (np.diff(maj) == 0) & (np.diff(mino) == 0)
            if np.any(dup):
                starts = np.flatnonzero(np.concatenate(([True], ~dup)))
                lengths = np.diff(np.append(starts, maj.size))
                merged = v[starts].copy()
                # Sum duplicate runs left to right (plain sequential
                # adds, matching scipy's sum_duplicates) -- runs are rare
                # and short, so a Python loop is fine here, at build time.
                for i in np.flatnonzero(lengths > 1):
                    acc = 0.0
                    for x in v[starts[i]: starts[i] + lengths[i]]:
                        acc += float(x)
                    merged[i] = acc
                maj, mino, v = maj[starts], mino[starts], merged
        self.rows = np.ascontiguousarray(maj, dtype=np.int64)
        self.cols = np.ascontiguousarray(mino, dtype=np.int64)
        self.vals = np.ascontiguousarray(v, dtype=np.float64)
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1)).astype(np.int64)
        self.n_rows = int(n)
        self.c_args: Optional[Tuple] = None

    @property
    def nnz(self) -> int:
        return int(self.vals.size)


class BranchPlan:
    """Sorted CSR-form index arrays for a branch-sum operator.

    ``gather`` applies ``P v`` (row = source state), ``scatter`` applies
    ``P^T x`` (row = destination state).  Memory is O(nnz) -- the same
    order as the branch terms themselves, so nothing is lost relative to
    the operator's own storage.
    """

    __slots__ = ("n", "gather", "scatter")

    def __init__(self, n: int, terms) -> None:
        self.n = int(n)
        idx = np.arange(n, dtype=np.int64)
        rows = np.concatenate([idx] * len(terms))
        cols = np.concatenate([np.asarray(d, dtype=np.int64) for _, d in terms])
        vals = np.concatenate([np.asarray(w, dtype=np.float64) for w, _ in terms])
        live = vals != 0.0
        rows, cols, vals = rows[live], cols[live], vals[live]
        self.gather = CSRArrays(rows, cols, vals, n)
        self.scatter = CSRArrays(cols, rows, vals, n)

    @property
    def nnz(self) -> int:
        return self.gather.nnz

    def triplets(self):
        """The matrix's entries as one canonical-CSR ``(rows, cols, vals)``."""
        yield self.gather.rows, self.gather.cols, self.gather.vals

    def __repr__(self) -> str:
        return f"BranchPlan(n={self.n}, nnz={self.nnz})"
