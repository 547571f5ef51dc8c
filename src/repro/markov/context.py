"""Solve contexts: reusable coarsening hierarchies and warm starts.

Every multigrid solve used to rebuild its coarse hierarchy from scratch,
even though sweep points, Monte-Carlo repetitions and service re-solves
differ only in *noise parameters*, never in chain structure.  This module
splits hierarchy **construction** from hierarchy **use**:

construction (cached here)
    The partitions of each level and the uniform-weight Galerkin
    restrictions used to discover them.  Keyed by a *structural digest* of
    the operator -- shape, branch/sparsity structure, backend class --
    so two specs differing only in noise rates share one hierarchy.

use (stays per-solve)
    The Koury-McAllister-Stewart coarse operators are re-weighted by the
    *current iterate* inside every V-cycle; that is the mathematical core
    of multilevel aggregation.  The coarse *values* are recomputed every
    cycle.  The coarse *pattern* (a
    :class:`~repro.markov.lumping.GalerkinPlan` per level) is computed
    once per solve, on its first cycle, and is not cached here: a
    matrix-free fine pattern drops exact zeros, so it can move with the
    noise values.

:class:`SolveContext` owns the hierarchy cache plus a warm-start store
(the last stationary vector per structure), and surfaces
hit/miss/build-seconds counters through :mod:`repro.obs` metrics
(``repro_hierarchy_cache_hits_total`` / ``..._misses_total`` /
``repro_hierarchy_build_seconds_total`` / ``repro_warm_starts_total``).

:class:`AMGPreconditioner` exposes a cached hierarchy to the Krylov
solvers (``preconditioner="amg"``): one V-cycle of damped-Jacobi
smoothing plus fixed-weight Galerkin coarse corrections on the augmented
system, applied fully matrix-free at the fine level (``rmatvec`` +
``diagonal()`` + ``triplets()`` for the Galerkin coarse operators are all
it needs).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from repro.markov.chain import MarkovChain
from repro.markov.linop import (
    AssembledOperator,
    as_operator,
    unwrap_operator,
)
from repro.markov.lumping import (
    Partition,
    entries_csr,
    lumped_tpm,
    prepare_block_weights,
)
from repro.markov.multigrid import (
    CoarseningStrategy,
    pairing_hierarchy,
    resolve_strategy,
)
from repro.obs.metrics import get_registry

__all__ = [
    "structural_digest",
    "CoarseningHierarchy",
    "build_hierarchy",
    "SolveContext",
    "AMGPreconditioner",
]

#: Floor applied to diagonal entries of the augmented smoother splitting.
_DIAG_FLOOR = 1e-10


# --------------------------------------------------------------------- #
# structural digests
# --------------------------------------------------------------------- #

def structural_digest(op) -> str:
    """Digest of an operator's *structure* (values excluded).

    Two operators share a digest exactly when a coarsening hierarchy (and
    a warm-start vector shape) built for one is valid for the other:

    * operators exposing ``structure_token()`` (the CDR matrix-free
      operator, branch-sum operators, Kronecker descriptors) hash that
      token -- backend class, dimensions and branch/shift structure, with
      every noise-dependent probability excluded;
    * assembled matrices hash their sparsity pattern
      (``shape`` + ``indptr`` + ``indices`` bytes);
    * anything else falls back to class name + shape, which can only
      cause a *performance* mismatch (a reused partition is still a valid
      partition -- fine-level residual checks guard correctness).
    """
    base = unwrap_operator(op)
    if isinstance(base, MarkovChain):
        # Normalize: a chain and its as_operator() wrapper must digest
        # identically, token (builder-set) and all.
        base = AssembledOperator(base.P, structure_token=base.structure_token())
    h = hashlib.sha256()
    h.update(type(base).__name__.encode())
    token_fn = getattr(base, "structure_token", None)
    token = token_fn() if token_fn is not None else None
    if token is not None:
        h.update(repr(token).encode())
        return h.hexdigest()[:16]
    P = None
    if sp.issparse(base):
        P = base.tocsr()
    elif isinstance(base, AssembledOperator):
        P = base.P
    if P is not None:
        h.update(np.asarray(P.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(P.indptr).tobytes())
        h.update(np.ascontiguousarray(P.indices).tobytes())
        return h.hexdigest()[:16]
    h.update(repr(tuple(getattr(base, "shape", ()))).encode())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------- #
# hierarchy construction (the cached half of the construction/use split)
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class CoarseningHierarchy:
    """A built (and reusable) coarsening hierarchy.

    Holds only *structure*: the per-level partitions and bookkeeping.
    Each solve plans its coarse patterns once and recomputes the weighted
    coarse values from the current iterate on every V-cycle (hierarchy
    *use*), so reusing this object across specs that share a structure is
    exact, not an approximation.
    """

    digest: str
    strategy: str
    partitions: Tuple[Partition, ...]
    level_sizes: Tuple[int, ...]
    build_seconds: float

    @property
    def n_states(self) -> int:
        return self.level_sizes[0]

    @property
    def n_levels(self) -> int:
        return len(self.level_sizes)

    def as_strategy(self) -> CoarseningStrategy:
        """The cached partitions wrapped as a coarsening strategy."""
        return pairing_hierarchy(self.partitions)

    def __repr__(self) -> str:
        sizes = "->".join(str(s) for s in self.level_sizes)
        return (
            f"CoarseningHierarchy({self.strategy!r}, {sizes}, "
            f"built in {self.build_seconds:.3f}s)"
        )


def build_hierarchy(
    op,
    strategy="auto",
    coarsest_size: int = 512,
    max_levels: int = 25,
) -> CoarseningHierarchy:
    """Build a coarsening hierarchy once, for reuse across many solves.

    Runs the strategy level by level against uniform-weight Galerkin
    coarse operators (structure discovery does not depend on any iterate)
    and records the partition stack.  ``strategy`` is a registered name
    (``"auto"``, ``"grid-pairing"``, ``"algebraic"``, ``"pairwise"``) or
    a callable ``(level, P) -> Partition | None``.
    """
    operator = as_operator(op)
    base = unwrap_operator(operator)
    strategy_name = strategy if isinstance(strategy, str) else getattr(
        strategy, "__name__", "custom"
    )
    strat = resolve_strategy(strategy, base)
    digest = structural_digest(base)
    t0 = time.perf_counter()
    partitions = []
    sizes = [base.shape[0]]
    current = base
    level = 0
    while sizes[-1] > coarsest_size and level < max_levels - 1:
        part = strat(level, current)
        if part is None or part.n_blocks >= sizes[-1]:
            break
        current = lumped_tpm(current, part)
        partitions.append(part)
        sizes.append(part.n_blocks)
        level += 1
    return CoarseningHierarchy(
        digest=digest,
        strategy=strategy_name,
        partitions=tuple(partitions),
        level_sizes=tuple(sizes),
        build_seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------- #
# the solve context
# --------------------------------------------------------------------- #

class SolveContext:
    """Campaign-scoped solver state: hierarchy cache + warm-start store.

    Build one per sweep / Monte-Carlo campaign / service process and pass
    it to :func:`repro.cdr.sweep.sweep_parameter`,
    :func:`repro.core.analyzer.analyze_cdr` or
    :func:`repro.resilience.resilient_stationary`; every solve that
    shares a chain *structure* then shares one hierarchy, and successive
    solves warm-start from the last stationary vector of that structure.

    Parameters
    ----------
    strategy:
        Coarsening strategy name or callable used when a hierarchy must
        be built (default ``"auto"``: grid pairing when the operator
        carries the CDR state-grid structure, algebraic
        strength-of-connection otherwise).
    coarsest_size, max_levels:
        Hierarchy-construction bounds (match the multigrid defaults).
    warm_start:
        When False the context never suggests initial vectors (the
        hierarchy cache still works).
    """

    def __init__(
        self,
        strategy="auto",
        coarsest_size: int = 512,
        max_levels: int = 25,
        warm_start: bool = True,
    ) -> None:
        self.strategy = strategy
        self.coarsest_size = int(coarsest_size)
        self.max_levels = int(max_levels)
        self.warm_start = bool(warm_start)
        self._hierarchies: Dict[str, CoarseningHierarchy] = {}
        self._solutions: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.warm_starts = 0
        self.build_seconds = 0.0

    # -- hierarchy cache ------------------------------------------------ #

    def hierarchy_for(self, op, strategy=None) -> CoarseningHierarchy:
        """The cached hierarchy for this operator's structure (built once).

        ``strategy`` overrides the context default for the *build* only
        (e.g. the analyzer passes the CDR model's grid pairing for
        assembled chains, whose bare CSR carries no grid structure); a
        cached hierarchy is returned regardless of which strategy built
        it -- the digest keys structure, not strategy.
        """
        digest = structural_digest(op)
        cached = self._hierarchies.get(digest)
        registry = get_registry()
        if cached is not None:
            self.hits += 1
            registry.counter(
                "repro_hierarchy_cache_hits_total",
                "Coarsening hierarchies served from a SolveContext cache",
            ).inc()
            return cached
        self.misses += 1
        registry.counter(
            "repro_hierarchy_cache_misses_total",
            "Coarsening hierarchies built because no cached one matched",
        ).inc()
        hierarchy = build_hierarchy(
            op,
            strategy=self.strategy if strategy is None else strategy,
            coarsest_size=self.coarsest_size,
            max_levels=self.max_levels,
        )
        self.build_seconds += hierarchy.build_seconds
        registry.counter(
            "repro_hierarchy_build_seconds_total",
            "Wall seconds spent building coarsening hierarchies",
        ).inc(hierarchy.build_seconds)
        self._hierarchies[digest] = hierarchy
        return hierarchy

    def strategy_for(self, op, strategy=None) -> CoarseningStrategy:
        """The cached hierarchy as a multigrid coarsening strategy."""
        return self.hierarchy_for(op, strategy=strategy).as_strategy()

    # -- warm starts ----------------------------------------------------- #

    def warm_start_for(self, op) -> Optional[np.ndarray]:
        """Initial vector for this structure, or None for a cold start."""
        if not self.warm_start:
            return None
        base = unwrap_operator(as_operator(op))
        vec = self._solutions.get(structural_digest(base))
        if vec is None or vec.shape[0] != base.shape[0]:
            return None
        self.warm_starts += 1
        get_registry().counter(
            "repro_warm_starts_total",
            "Solves warm-started from a SolveContext stationary vector",
        ).inc()
        return vec.copy()

    def record_solution(self, op, distribution: np.ndarray) -> None:
        """Remember a converged stationary vector for later warm starts."""
        vec = np.asarray(distribution, dtype=float)
        if vec.ndim != 1 or not np.all(np.isfinite(vec)):
            return
        self._solutions[structural_digest(op)] = vec.copy()

    # -- convenience ----------------------------------------------------- #

    def solve(self, chain, method: str = "multigrid", tol: float = 1e-10,
              x0: Optional[np.ndarray] = None, **kwargs):
        """Context-threaded ``stationary_distribution``.

        Injects the cached hierarchy (multigrid strategy / Krylov AMG
        preconditioner), warm-starts from the last solution of the same
        structure when no ``x0`` is given, and records the converged
        vector for the next solve.
        """
        from repro.markov.stationary import stationary_distribution

        op = as_operator(chain)
        warmed = False
        if x0 is None:
            x0 = self.warm_start_for(op)
            warmed = x0 is not None
        if method == "multigrid":
            kwargs.setdefault("hierarchy", self.hierarchy_for(op))
        elif method == "krylov":
            kwargs.setdefault("preconditioner", "amg")
            kwargs.setdefault("hierarchy", self.hierarchy_for(op))
        result = stationary_distribution(
            op, method=method, tol=tol, x0=x0, **kwargs
        )
        if result.converged:
            self.record_solution(op, result.distribution)
        result.warm_started = warmed
        return result

    def stats(self) -> Dict[str, float]:
        """Cache/warm-start counters (mirrored into sweep manifests)."""
        return {
            "hierarchy_hits": self.hits,
            "hierarchy_misses": self.misses,
            "hierarchy_build_seconds": self.build_seconds,
            "warm_starts": self.warm_starts,
            "cached_structures": len(self._hierarchies),
        }

    def __repr__(self) -> str:
        return (
            f"SolveContext(strategy={self.strategy!r}, "
            f"hierarchies={len(self._hierarchies)}, hits={self.hits}, "
            f"misses={self.misses}, warm_starts={self.warm_starts})"
        )


# --------------------------------------------------------------------- #
# the hierarchy as a Krylov preconditioner
# --------------------------------------------------------------------- #

class _AMGLevel:
    """Per-level data of the preconditioner cycle (fixed for one solve)."""

    __slots__ = ("apply_at", "a_diag", "block_of", "n_blocks", "prolong_w")

    def __init__(self, apply_at, a_diag, partition: Partition, prolong_w):
        self.apply_at = apply_at          # v -> P_l^T v
        self.a_diag = a_diag              # diag(I - P_l^T) floored
        self.block_of = partition.block_of
        self.n_blocks = partition.n_blocks
        self.prolong_w = prolong_w        # w_i / mass(block(i))


class AMGPreconditioner:
    """One V-cycle of a coarsening hierarchy as ``M`` for GMRES/BiCGStab.

    Approximates the inverse of the augmented stationary system
    ``A = I - P^T`` (last row replaced by normalization): damped-Jacobi
    smoothing on each level, block-sum restriction of the residual,
    weighted disaggregation of the coarse correction, and a factored
    direct solve of the *augmented* coarsest system (which pins the
    normalization the singular fine-level ``I - P^T`` leaves free).

    The coarse operators are the same weighted Galerkin restrictions
    multigrid uses, built **once** per preconditioner with fixed weights
    (the warm-start vector when available, uniform otherwise) -- Krylov
    methods require a fixed ``M``.  The fine level is matrix-free:
    only ``rmatvec``, ``diagonal()`` and ``triplets()`` (through
    :func:`~repro.markov.lumping.lumped_tpm`) are consumed.
    """

    def __init__(
        self,
        op,
        hierarchy: CoarseningHierarchy,
        weights: Optional[np.ndarray] = None,
        nu: int = 1,
        omega: float = 0.8,
    ) -> None:
        operator = as_operator(op)
        n = operator.shape[0]
        if hierarchy.n_states != n:
            raise ValueError(
                f"hierarchy was built for {hierarchy.n_states} states, "
                f"operator has {n}"
            )
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
            if w.shape != (n,) or w.sum() <= 0:
                w = np.full(n, 1.0 / n)
        self.nu = max(1, int(nu))
        self.omega = float(omega)
        self.shape = (n, n)
        self._levels = []
        current = operator
        for part in hierarchy.partitions:
            w_l, mass = prepare_block_weights(part, w)
            diag = current.diagonal()
            C = lumped_tpm(current, part, weights=w_l)
            if sp.issparse(current):
                apply_at = current.T.tocsr().dot
            else:
                apply_at = current.rmatvec
            a_diag = np.maximum(1.0 - diag, _DIAG_FLOOR)
            self._levels.append(
                _AMGLevel(apply_at, a_diag, part, w_l / mass[part.block_of])
            )
            current = C
            w = mass
        # With no coarse level the fine operator is the coarsest system;
        # its matrix then comes from triplets(), like every coarse level's.
        from repro.markov.solvers.direct import augmented_system

        coarsest = entries_csr(current)
        self._coarse_lu = splu(augmented_system(coarsest).tocsc())

    # ------------------------------------------------------------------ #

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self._levels):
            return self._coarse_lu.solve(r)
        lvl = self._levels[level]
        # damped Jacobi from zero on (I - P^T) z = r
        z = self.omega * r / lvl.a_diag
        for _ in range(self.nu - 1):
            resid = r - (z - lvl.apply_at(z))
            z = z + self.omega * resid / lvl.a_diag
        resid = r - (z - lvl.apply_at(z))
        rc = np.bincount(lvl.block_of, weights=resid, minlength=lvl.n_blocks)
        zc = self._cycle(level + 1, rc)
        z = z + lvl.prolong_w * zc[lvl.block_of]
        resid = r - (z - lvl.apply_at(z))
        return z + self.omega * resid / lvl.a_diag

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle: an approximate ``A^{-1} r``."""
        return self._cycle(0, np.asarray(r, dtype=float))

    def as_linear_operator(self) -> LinearOperator:
        return LinearOperator(self.shape, matvec=self.apply, dtype=float)
