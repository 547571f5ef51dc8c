"""The compiled-C kernel tier (ctypes, built on first use).

A ~150-line C translation of the NumPy tier's three primitives, compiled
once per machine with whatever C compiler is on ``PATH`` and loaded via
:mod:`ctypes`.  No build-time dependency, no wheel: the shared object is
cached under ``$REPRO_KERNELS_CACHE`` (default ``~/.cache/repro-kernels``)
keyed by a hash of the source and compiler, so every later import is a
single ``dlopen``.

Bit-compatibility contract: the kernels perform exactly the multiply and
add sequence of the NumPy tier (and of scipy's CSR matvec), and the
build passes ``-ffp-contract=off`` so the compiler cannot fuse the
multiply-add pairs into FMAs -- fusion changes the rounding and would
break the cross-tier bit-identity invariant.  No ``-ffast-math``, no
``-march=native`` (reassociation and machine-specific contraction are
exactly the transformations we must forbid).  The survival kernel also
sums a vector once per step; it does so with a port of NumPy's own
pairwise summation, so that sum is bitwise ``ndarray.sum()`` too.

When no compiler is available or the probe compile fails, the tier
simply reports itself unavailable and selection falls through to NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

__all__ = ["load_tier", "build_error"]

name = "cext"

_SOURCE = r"""
#include <stdint.h>

/* One coalesced roll-plan application (see repro/kernels/plan.py).
   Segment k accumulates, for m in [a[k], b[k]):
     out[(orow*M + m)*nvec + j] +=
         (scale[k] * q[qrow*M + m + woff[k]]) * x[(irow*M + m + xoff[k])*nvec + j]
   The multiply-then-add sequence must stay unfused (-ffp-contract=off)
   to remain bit-identical to the NumPy tier and to CSR application. */
void repro_roll_apply(const double *x, double *out, const double *q,
                      const double *scale,
                      const int64_t *orow, const int64_t *irow,
                      const int64_t *qrow, const int64_t *a,
                      const int64_t *b, const int64_t *xoff,
                      const int64_t *woff,
                      int64_t nseg, int64_t m_pts, int64_t nvec)
{
    for (int64_t k = 0; k < nseg; ++k) {
        const double s = scale[k];
        const double *ws = q + qrow[k] * m_pts + a[k] + woff[k];
        const double *xs = x + (irow[k] * m_pts + a[k] + xoff[k]) * nvec;
        double *o = out + (orow[k] * m_pts + a[k]) * nvec;
        const int64_t len = b[k] - a[k];
        if (nvec == 1) {
            for (int64_t m = 0; m < len; ++m)
                o[m] += (s * ws[m]) * xs[m];
        } else {
            for (int64_t m = 0; m < len; ++m) {
                const double wm = s * ws[m];
                const double *xr = xs + m * nvec;
                double *orr = o + m * nvec;
                for (int64_t j = 0; j < nvec; ++j)
                    orr[j] += wm * xr[j];
            }
        }
    }
}

/* CSR application for branch plans: out must be zero-initialized for
   nvec > 1; for nvec == 1 rows are assigned (scipy csr_matvec's local
   accumulator, bit for bit). */
void repro_csr_apply(const double *x, double *out, const double *vals,
                     const int64_t *cols, const int64_t *indptr,
                     int64_t nrows, int64_t nvec)
{
    if (nvec == 1) {
        for (int64_t i = 0; i < nrows; ++i) {
            double acc = 0.0;
            for (int64_t jj = indptr[i]; jj < indptr[i + 1]; ++jj)
                acc += vals[jj] * x[cols[jj]];
            out[i] = acc;
        }
    } else {
        for (int64_t i = 0; i < nrows; ++i) {
            double *o = out + i * nvec;
            for (int64_t jj = indptr[i]; jj < indptr[i + 1]; ++jj) {
                const double v = vals[jj];
                const double *xr = x + cols[jj] * nvec;
                for (int64_t j = 0; j < nvec; ++j)
                    o[j] += v * xr[j];
            }
        }
    }
}

/* NumPy's float64 pairwise summation, ported so the survival kernel's
   per-step P(T > k) is bitwise what ndarray.sum() returns for the same
   vector (numpy/_core/src/umath/loops_utils.h.src, pairwise_sum_DOUBLE):
   below 8 elements a plain running sum; up to 128 elements eight
   interleaved partial sums, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
   then the remainder added in order; above 128 a split at n/2 rounded
   down to a multiple of 8.  The reduction adds this to its identity 0.0,
   which turns an all -0.0 sum into +0.0 just as NumPy does.  A change to
   NumPy's summation order would break the bit-identity between tiers;
   tests/kernels/test_survival.py compares this port with ndarray.sum(). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; ++j)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

double repro_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* The whole survival iteration of first_passage_survival (see
   repro/scenarios/measures.py and the NumPy tier's csr_survival): zero
   the target rows of x, then repeatedly apply the scatter table of P^T
   (the CSR row sum of repro_csr_apply), zeroing target rows as they are
   written, until P(T > k) <= survival_tol or max_steps steps.  The two
   buffers x and y swap roles each step.  stats holds (survival, prev,
   mean) on return; *quantile_at the first step with
   survival <= threshold, or -1.  Returns the number of steps run. */
int64_t repro_csr_survival(const double *vals, const int64_t *cols,
                           const int64_t *indptr, int64_t nrows,
                           const uint8_t *mask, double *x, double *y,
                           double survival_tol, int64_t max_steps,
                           double threshold, double *stats,
                           int64_t *quantile_at)
{
    for (int64_t i = 0; i < nrows; ++i)
        if (mask[i])
            x[i] = 0.0;
    double survival = repro_sum(x, nrows);
    double mean = survival, prev = survival;
    int64_t q = survival <= threshold ? 0 : -1;
    int64_t steps = 0;
    while (survival > survival_tol && steps < max_steps) {
        for (int64_t i = 0; i < nrows; ++i) {
            if (mask[i]) {
                y[i] = 0.0;
                continue;
            }
            double acc = 0.0;
            for (int64_t jj = indptr[i]; jj < indptr[i + 1]; ++jj)
                acc += vals[jj] * x[cols[jj]];
            y[i] = acc;
        }
        double *t = x;
        x = y;
        y = t;
        prev = survival;
        survival = repro_sum(x, nrows);
        ++steps;
        mean += survival;
        if (q < 0 && survival <= threshold)
            q = steps;
    }
    stats[0] = survival;
    stats[1] = prev;
    stats[2] = mean;
    *quantile_at = q;
    return steps;
}
"""

_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off"]

_lib = None
_load_attempted = False
#: Human-readable reason the tier is unavailable (None when loaded/untried).
build_error: Optional[str] = None


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNELS_CACHE")
    if configured:
        return configured
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "repro-kernels",
    )


def _compiler() -> Optional[str]:
    configured = os.environ.get("CC")
    if configured:
        return shutil.which(configured)
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def _build() -> ctypes.CDLL:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    digest = hashlib.sha256(
        (_SOURCE + "\0" + " ".join(_CFLAGS) + "\0" + cc).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro-kernels-{digest}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "kernels.c")
            with open(src, "w", encoding="utf-8") as fh:
                fh.write(_SOURCE)
            tmp_so = os.path.join(tmp, "kernels.so")
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp_so, src],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{cc} failed ({proc.returncode}): {proc.stderr.strip()[:500]}"
                )
            # Atomic publish: concurrent builders (pool workers) race
            # benignly -- last rename wins, every file is complete.
            os.replace(tmp_so, so_path)
    lib = ctypes.CDLL(so_path)
    # Buffers go in as plain addresses: converting an int through
    # c_void_p is far cheaper than building a typed pointer per array.
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.repro_roll_apply.restype = None
    lib.repro_roll_apply.argtypes = [ptr] * 11 + [i64] * 3
    lib.repro_csr_apply.restype = None
    lib.repro_csr_apply.argtypes = [ptr] * 5 + [i64] * 2
    lib.repro_sum.restype = ctypes.c_double
    lib.repro_sum.argtypes = [ptr, i64]
    lib.repro_csr_survival.restype = i64
    lib.repro_csr_survival.argtypes = (
        [ptr] * 3 + [i64] + [ptr] * 3 + [ctypes.c_double, i64, ctypes.c_double]
        + [ptr] * 2
    )
    return lib


def load_tier():
    """This module as a kernel tier, or None when it cannot be built."""
    global _lib, _load_attempted, build_error
    if not _load_attempted:
        _load_attempted = True
        try:
            _lib = _build()
        except Exception as exc:  # unavailable, never fatal
            build_error = str(exc)
            _lib = None
    if _lib is None:
        return None
    import sys

    return sys.modules[__name__]


def _bind_roll(q: np.ndarray, segs) -> tuple:
    """The roll kernel's plan arguments: ``q`` plus addresses and sizes."""
    arrays = (
        q, segs.scale, segs.orow, segs.irow, segs.qrow,
        segs.a, segs.b, segs.xoff, segs.woff,
    )
    return q, (*(a.ctypes.data for a in arrays), segs.n_segments, q.shape[1])


def _bind_csr(cs) -> tuple:
    """The CSR kernel's plan arguments: addresses and row count."""
    return (cs.vals.ctypes.data, cs.cols.ctypes.data, cs.indptr.ctypes.data,
            cs.n_rows)


def roll_apply(q: np.ndarray, segs, x: np.ndarray, out: np.ndarray) -> None:
    # The plan's arrays are immutable, so their addresses are bound once
    # per segment table (holding ``q`` keeps the bound buffer alive); only
    # ``x`` and ``out`` are converted per call.
    bound = segs.c_args
    if bound is None or bound[0] is not q:
        bound = segs.c_args = _bind_roll(q, segs)
    nvec = 1 if x.ndim == 1 else x.shape[1]
    _lib.repro_roll_apply(x.ctypes.data, out.ctypes.data, *bound[1], nvec)


def csr_apply(cs, x: np.ndarray, out: np.ndarray) -> None:
    bound = cs.c_args
    if bound is None:
        bound = cs.c_args = _bind_csr(cs)
    nvec = 1 if x.ndim == 1 else x.shape[1]
    _lib.repro_csr_apply(x.ctypes.data, out.ctypes.data, *bound, nvec)


def csr_survival(cs, x: np.ndarray, mask: np.ndarray, survival_tol: float,
                 max_steps: int, threshold: float) -> tuple:
    """The NumPy tier's :func:`~repro.kernels.numpy_tier.csr_survival`
    in one C call; ``x`` and a second buffer are overwritten."""
    vals, cols, indptr, n = _bind_csr(cs)
    y = np.empty_like(x)
    stats = np.empty(3)
    quantile_at = np.empty(1, dtype=np.int64)
    steps = _lib.repro_csr_survival(
        vals, cols, indptr, n, mask.ctypes.data, x.ctypes.data,
        y.ctypes.data, survival_tol, max_steps, threshold,
        stats.ctypes.data, quantile_at.ctypes.data,
    )
    survival, prev, mean = stats.tolist()
    return int(steps), survival, prev, mean, int(quantile_at[0])


def pairwise_sum(a: np.ndarray) -> float:
    """The C port of NumPy's float64 pairwise sum (``a`` contiguous)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return _lib.repro_sum(a.ctypes.data, a.size)
