"""Kernel tiers for the structural matrix-free operators.

ROADMAP item 1's answer to the matrix-free matvec gap: the structural
operators (:class:`~repro.cdr.operator.CDRTransitionOperator`,
:class:`~repro.scenarios.operator.BranchSumOperator`) compile their term
structure once into a :mod:`~repro.kernels.plan` and apply it through
one of two interchangeable *kernel tiers*:

``numpy``
    Pure NumPy (always available): vectorized contiguous-slice segment
    loops and sorted ``bincount`` scatters.  The reference tier.
``cext``
    A ~150-line C kernel compiled on first use with whatever C compiler
    is on ``PATH`` and loaded via ctypes (no build step, no wheel).
    Available on any machine with ``cc``/``gcc``/``clang``.

Selection is by the ``REPRO_KERNELS`` environment variable: ``numpy`` /
``cext`` force a tier (erroring loudly if it is unavailable -- a forced
tier silently falling back would defeat the CI equivalence legs),
``auto`` (the default) picks ``cext`` when it builds and ``numpy``
otherwise.

Every tier is **bit-identical** to the others and to applying the
operator's assembled CSR matrix (``to_csr()`` / its transpose): the
plans fix one accumulation order -- ascending source column per output
element, CSR's own order -- and every tier executes exactly that
multiply/add sequence, with FMA contraction explicitly disabled in the
compiled tier.  The equivalence battery in ``tests/kernels`` and the CI
``kernels`` job enforce this invariant across tiers, blocked vs looped
applies, and all registered scenarios.

Besides the two apply primitives (``roll_apply``, ``csr_apply``) every
tier provides ``csr_survival``: the whole step loop of
:func:`~repro.scenarios.measures.first_passage_survival` over a
:class:`CSRArrays` table of ``P^T``, in one call instead of one
``rmatvec`` per step.  Its per-step sum follows NumPy's pairwise
summation order (the compiled tier carries a port of it), so the tiers
agree bit for bit there too.

This module also hosts the zero-copy apply-argument helpers
(:func:`as_apply_vector`, :func:`as_apply_block`): float64 contiguous
caller buffers pass through untouched (``np.shares_memory`` with the
input -- a test invariant), anything else is converted once at the apply
boundary instead of silently copying inside solver loops.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.plan import BranchPlan, CSRArrays, RollPlan, SegmentSet

__all__ = [
    "KERNEL_ENV",
    "KERNEL_TIERS",
    "RollPlan",
    "BranchPlan",
    "CSRArrays",
    "SegmentSet",
    "available_tiers",
    "tier_availability",
    "get_kernel",
    "active_tier",
    "use_tier",
    "as_apply_vector",
    "as_apply_block",
]

#: Environment variable selecting the kernel tier.
KERNEL_ENV = "REPRO_KERNELS"

#: All tier names, in ``auto`` preference order.
KERNEL_TIERS = ("cext", "numpy")

_lock = threading.Lock()
_probed: Dict[str, Optional[object]] = {}
_override: List[object] = []


def _probe(tier: str):
    """The tier's kernel module, or None when unavailable (cached)."""
    if tier not in _probed:
        with _lock:
            if tier not in _probed:
                if tier == "numpy":
                    from repro.kernels import numpy_tier

                    _probed[tier] = numpy_tier
                elif tier == "cext":
                    from repro.kernels import cext_tier

                    _probed[tier] = cext_tier.load_tier()
                else:
                    _probed[tier] = None
    return _probed[tier]


def available_tiers() -> Tuple[str, ...]:
    """Names of the tiers usable in this environment (numpy always is)."""
    return tuple(t for t in KERNEL_TIERS if _probe(t) is not None)


def tier_availability() -> Dict[str, Optional[str]]:
    """Per-tier availability: ``{name: None if available else reason}``."""
    out: Dict[str, Optional[str]] = {}
    for tier in KERNEL_TIERS:
        if _probe(tier) is not None:
            out[tier] = None
        elif tier == "cext":
            from repro.kernels import cext_tier

            out[tier] = cext_tier.build_error or "unavailable"
        else:
            out[tier] = "unavailable"
    return out


def get_kernel(tier: Optional[str] = None):
    """Resolve the kernel module for ``tier`` (default: env / auto).

    Forcing an unavailable tier raises ``RuntimeError`` naming the
    reason; ``auto`` falls through the preference order and always
    terminates at ``numpy``.
    """
    if _override and tier is None:
        return _override[-1]
    requested = tier or os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    if requested == "auto":
        for candidate in KERNEL_TIERS:
            kernel = _probe(candidate)
            if kernel is not None:
                return kernel
        raise RuntimeError("no kernel tier available (numpy tier missing?)")
    if requested not in KERNEL_TIERS:
        raise RuntimeError(
            f"unknown kernel tier {requested!r} (from ${KERNEL_ENV}); "
            f"expected one of {('auto',) + KERNEL_TIERS}"
        )
    kernel = _probe(requested)
    if kernel is None:
        reason = tier_availability().get(requested) or "unavailable"
        raise RuntimeError(
            f"kernel tier {requested!r} was requested "
            f"(${KERNEL_ENV} or explicit) but is unavailable: {reason}"
        )
    return kernel


def active_tier() -> str:
    """Name of the tier :func:`get_kernel` resolves to right now.

    This is what benchmark fingerprints, profile snapshots and run
    manifests record, so two artifacts are only compared knowing which
    kernels produced them.
    """
    return get_kernel().name


@contextmanager
def use_tier(tier: str):
    """Force a tier for the enclosed block (tests and benchmarks).

    Operators bind their kernel at construction, so the override applies
    to operators *built* inside the block.
    """
    kernel = get_kernel(tier)
    _override.append(kernel)
    try:
        yield kernel
    finally:
        _override.pop()


# ---------------------------------------------------------------------- #
# zero-copy apply-argument validation (the hot-path boundary)
# ---------------------------------------------------------------------- #

def as_apply_vector(x, n: int) -> np.ndarray:
    """Validate an apply argument as a length-``n`` float64 vector.

    A C-contiguous float64 ndarray passes through *without copying*
    (``np.asarray(..., dtype=float)`` on every apply used to copy or
    upcast caller buffers inside solver loops); anything else -- lists,
    float32, Fortran-strided views -- is converted exactly once, here.
    """
    if not (
        isinstance(x, np.ndarray)
        and x.dtype == np.float64
        and x.flags.c_contiguous
    ):
        x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"vector must have shape ({n},)")
    return x


def as_apply_block(X, n: int) -> np.ndarray:
    """Validate a blocked apply argument as ``(n, k)`` float64 C-order."""
    if not (
        isinstance(X, np.ndarray)
        and X.dtype == np.float64
        and X.flags.c_contiguous
    ):
        X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"block must have shape ({n}, k)")
    return X
