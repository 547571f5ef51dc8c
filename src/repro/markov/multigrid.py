"""Multi-level aggregation ("multigrid") stationary solver.

This is the paper's dedicated solver: a multi-level generalization of
aggregation/disaggregation due to Horton & Leutenegger ("A multi-level
solution algorithm for steady-state Markov chains"), which the paper
interprets as an algebraic multi-grid method and accelerates with a
*structured* coarsening strategy: "we employed a coarsening strategy which
lumps the two states corresponding to consecutive discretized phase error
values.  In this way, the lumped problems resemble the original problem but
with coarser phase error discretization."

Algorithm (one V-cycle on level ``l``):

1. pre-smooth the iterate with ``nu_pre`` Gauss-Jacobi sweeps;
2. aggregate: build the coarse chain ``C`` weighted by the current iterate
   (the exact Koury-McAllister-Stewart coarse operator);
3. recurse on ``C`` (or solve directly once the chain is small);
4. prolongate multiplicatively (block-wise rescaling);
5. post-smooth with ``nu_post`` sweeps.

Step 2 changes only the coarse *values*: the coarse pattern is fixed for
a solve.  Each level's :class:`~repro.markov.lumping.GalerkinPlan` (the
pattern, the fine-to-coarse slot map and the coarse transpose
permutation) is built on the first cycle and reused by every later one,
both W-cycle corrections included.  A cycle then costs one sparse matvec
per coarse build, and each coarse level's Jacobi split is a permutation
of the new values (``GalerkinPlan.split``), released when that level's
correction returns.  Only the fine split lives for the whole solve.

Step 3's direct solve splits the same way.  The coarsest level's
:class:`~repro.markov.solvers.direct.DirectPlan` (normalization state,
elimination order, permuted pattern) is built on the first coarsest
visit, weighted by the coarse iterate, and each cycle runs only one
fixed-order factorization without pivoting.  The plan is rebuilt only
when the coarsest pattern changes; the index arrays a Galerkin plan
shares pass that check by identity.  Its build counts as coarsest-solve
time in the level's V-cycle event (``coarsest_solve_time``), as each
Galerkin plan's build counts as coarse-build time.

Between cycles, at the top level only:

6. recombine: the last :data:`RECOMBINE_WINDOW` iterates ``x_j`` and
   their residuals ``r_j = x_j P - x_j`` are kept, and the combination
   ``z = sum_j a_j x_j`` with ``sum_j a_j = 1`` that minimizes the
   chi-squared residual ``sum_i r_i(z)^2 / x_i`` is formed (``r`` is
   linear in ``x``, so ``r(z) = sum_j a_j r_j``; ``x`` is the cycle's own
   iterate).  ``z`` replaces the cycle's output only if it is nonnegative
   and its true residual ``||z P - z||_1`` is lower.  This is De Sterck
   et al.'s top-level iterant recombination ("Top-level acceleration of
   adaptive algebraic multilevel methods for steady-state solution to
   Markov chains", 2011).  The weights matter: a plain 2-norm fit is set
   by the bulk states and moves the far tail, and with it the BER, by
   ~1e-5 relative; dividing by ``x`` measures each state's residual
   relative to its own probability, so the tail counts as much as the
   bulk.  States far below the residual can still move by large factors:
   a measure far below ``tol`` (the stiff design's 1e-241 BER) keeps no
   digits, as with every residual-stopped solver.  The window starts
   empty in every solve (warm starts and checkpoint resumes included),
   and the residual reported, and tested against ``tol``, is always the
   true residual of the returned vector.

V-cycles repeat until the fine-level residual ``||x P - x||_1`` drops below
tolerance.  The coarsening strategy is pluggable.  The CDR models supply
grid pairing (registered as ``"grid-pairing"``,
:func:`repro.cdr.model.grid_pairing_partitions`): the paper's lumping of
consecutive phase points, applied to the data, counter (and drift)
coordinates as well.  Every level halves each axis still larger than 1,
so a level holds an eighth, then a quarter, of the states above it, where
phase pairing alone keeps the data and counter axes and only halves.  At
61,440 states the V-cycle count stays the same (14 or 15 a solve) while
the coarse levels' smoothing falls from 1.6 times the fine level's to a
third of it.  A generic strongest-coupling pairwise aggregation is
provided for arbitrary chains.

The *fine* level is matrix-free capable: any
:class:`~repro.markov.linop.TransitionOperator` works unassembled --
smoothing routes the Jacobi splitting through ``rmatvec``/``diagonal()``,
the fine-level residual uses ``rmatvec``, and every coarse operator is
built by the one Galerkin restriction (the plan above, whose one-shot
form is :func:`~repro.markov.lumping.lumped_tpm`) from the level's
``triplets()``, which a solve reads once.  Coarse levels are always
assembled CSR matrices (they are small).  The generic pairwise and
algebraic coarsening strategies read an unassembled level's matrix from
``triplets()`` too (:func:`~repro.markov.lumping.entries_csr`); a
structural strategy (the CDR models' grid pairing) avoids that copy.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.markov.aggregation import disaggregate
from repro.markov.linop import (
    AssembledOperator,
    OperatorCapabilityError,
    as_operator,
    operator_residual,
)
from repro.markov.lumping import GalerkinPlan, Partition, entries_csr
from repro.markov.monitor import (
    NULL_MONITOR,
    SolverMonitor,
    VCycleLevelEvent,
    instrument,
)
from repro.markov.registry import register_solver
from repro.markov.solvers.direct import DirectPlan
from repro.markov.solvers.jacobi import jacobi_split, jacobi_sweeps
from repro.markov.solvers.power import solve_power
from repro.markov.solvers.result import StationaryResult, prepare_initial_guess
from repro.obs.profile import InstrumentedOperator, record_vcycles

__all__ = [
    "MultigridOptions",
    "MultigridSolver",
    "solve_multigrid",
    "pairwise_strength_partition",
    "strength_of_connection_partition",
    "pairing_hierarchy",
    "register_coarsening",
    "get_coarsening",
    "coarsening_names",
    "resolve_strategy",
]

_WEIGHT_FLOOR = 1e-300

#: Top-level iterates (with their residual vectors) a solve recombines.
RECOMBINE_WINDOW = 5

# A coarsening strategy maps (level, current TPM) -> Partition or None
# (None meaning "stop coarsening here").
CoarseningStrategy = Callable[[int, sp.csr_matrix], Optional[Partition]]


def _default_strategy(level: int, P) -> Partition:
    """Generic coarsening for arbitrary inputs (reads operators' entries)."""
    return pairwise_strength_partition(entries_csr(P))


def pairwise_strength_partition(P: sp.csr_matrix) -> Partition:
    """Generic algebraic coarsening: greedy pairing by coupling strength.

    Each state is paired with the unpaired neighbour to which the symmetric
    coupling ``P[i, j] + P[j, i]`` is strongest; leftovers stay singletons.
    This is the fallback for chains without exploitable structure and the
    baseline the coarsening ablation compares the paper's structured
    strategy against.
    """
    n = P.shape[0]
    S = (P + P.T).tocsr()
    block_of = np.full(n, -1, dtype=np.int64)
    next_block = 0
    # Visit states in order of decreasing strongest coupling for better
    # pairings; plain order is fine too and much cheaper, so we keep it
    # simple: sequential greedy.
    for i in range(n):
        if block_of[i] != -1:
            continue
        row = S.indices[S.indptr[i]:S.indptr[i + 1]]
        vals = S.data[S.indptr[i]:S.indptr[i + 1]]
        best_j, best_v = -1, 0.0
        for j, v in zip(row, vals):
            if j != i and block_of[j] == -1 and v > best_v:
                best_j, best_v = int(j), float(v)
        block_of[i] = next_block
        if best_j >= 0:
            block_of[best_j] = next_block
        next_block += 1
    return Partition(block_of)


def strength_of_connection_partition(
    P: sp.csr_matrix, theta: float = 0.25, max_aggregate: int = 8
) -> Partition:
    """Algebraic strength-of-connection aggregation (AMG-style).

    For each unaggregated state ``i`` (in index order) a new aggregate is
    seeded from ``i`` plus its *strong* unaggregated neighbours: ``j`` is
    strong for ``i`` when the symmetric coupling ``P[i, j] + P[j, i]`` is
    at least ``theta`` times the strongest off-diagonal coupling of row
    ``i``.  Aggregates are capped at ``max_aggregate`` members (strongest
    first) so the coarse problem keeps enough resolution for the
    Koury-McAllister-Stewart correction to be effective.

    Unlike the CDR models' grid pairing this needs no structural knowledge,
    so it applies to arbitrary chains (the bang-bang frequency loop, the
    mesochronous retimer) where the phase-grid lumping does not.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")
    if max_aggregate < 2:
        raise ValueError("max_aggregate must be at least 2")
    n = P.shape[0]
    S = (P + P.T).tocsr()
    S.setdiag(0.0)
    S.eliminate_zeros()
    indptr, indices, data = S.indptr, S.indices, S.data
    block_of = np.full(n, -1, dtype=np.int64)
    next_block = 0
    for i in range(n):
        if block_of[i] != -1:
            continue
        row = indices[indptr[i]:indptr[i + 1]]
        vals = data[indptr[i]:indptr[i + 1]]
        if vals.size:
            strong = (vals >= theta * vals.max()) & (block_of[row] == -1)
            members = row[strong]
            if members.size > max_aggregate - 1:
                order = np.argsort(vals[strong])[::-1]
                members = members[order[: max_aggregate - 1]]
        else:
            members = row[:0]
        block_of[i] = next_block
        block_of[members] = next_block
        next_block += 1
    return Partition(block_of)


def pairing_hierarchy(
    partitions: Sequence[Partition],
) -> CoarseningStrategy:
    """Wrap a precomputed list of partitions as a coarsening strategy.

    ``partitions[l]`` maps level-``l`` states to level-``l+1`` blocks.
    Model builders (e.g. the CDR models' grid pairing) precompute these
    from structural knowledge.
    """
    def strategy(level: int, P: sp.csr_matrix) -> Optional[Partition]:
        if level >= len(partitions):
            return None
        part = partitions[level]
        if part.n_states != P.shape[0]:
            raise ValueError(
                f"partition at level {level} has {part.n_states} states, "
                f"matrix has {P.shape[0]}"
            )
        return part
    return strategy


# --------------------------------------------------------------------- #
# coarsening-strategy registry
# --------------------------------------------------------------------- #

# name -> factory(operator) -> CoarseningStrategy.  The factory receives
# the (unwrapped) fine operator so structural strategies can interrogate
# it; purely algebraic strategies ignore it.
_COARSENERS: dict = {}


def register_coarsening(name: str):
    """Decorator registering a coarsening-strategy factory under ``name``."""
    def deco(factory):
        if name in _COARSENERS:
            raise ValueError(f"coarsening strategy {name!r} already registered")
        _COARSENERS[name] = factory
        return factory
    return deco


def get_coarsening(name: str):
    """Factory for a registered coarsening strategy (KeyError lists names)."""
    try:
        return _COARSENERS[name]
    except KeyError:
        raise KeyError(
            f"unknown coarsening strategy {name!r}; "
            f"registered: {', '.join(sorted(_COARSENERS))}"
        ) from None


def coarsening_names() -> tuple:
    return tuple(sorted(_COARSENERS))


def resolve_strategy(strategy, op) -> CoarseningStrategy:
    """Coerce a strategy spec (name / callable / None) to a callable.

    ``op`` is unwrapped from any profiling instrumentation first so
    structural factories (grid-pairing) see the real operator.
    """
    from repro.markov.linop import unwrap_operator

    if strategy is None:
        return _default_strategy
    if callable(strategy):
        return strategy
    return get_coarsening(strategy)(unwrap_operator(op))


@register_coarsening("pairwise")
def _pairwise_factory(op) -> CoarseningStrategy:
    return _default_strategy


@register_coarsening("algebraic")
def _algebraic_factory(op, theta: float = 0.25) -> CoarseningStrategy:
    def strategy(level: int, P) -> Optional[Partition]:
        return strength_of_connection_partition(entries_csr(P), theta=theta)
    return strategy


@register_coarsening("grid-pairing")
def _grid_pairing_factory(op) -> CoarseningStrategy:
    builder = getattr(op, "multigrid_strategy", None)
    if builder is None:
        raise OperatorCapabilityError(
            f"{type(op).__name__} has no multigrid_strategy(); the "
            "grid-pairing coarsening needs the CDR state-grid structure "
            "-- use 'algebraic' or 'pairwise' instead"
        )
    return builder()


@register_coarsening("auto")
def _auto_factory(op) -> CoarseningStrategy:
    # Structured lumping when the operator knows its state grid,
    # algebraic strength-of-connection otherwise.
    if getattr(op, "multigrid_strategy", None) is not None:
        return _grid_pairing_factory(op)
    return _algebraic_factory(op)


class _Recombiner:
    """Top-level iterant recombination over one solve (module step 6).

    Holds the last :data:`RECOMBINE_WINDOW` ``(x, r)`` pairs by reference
    (no copies, no stacking) and one scratch vector.  The constrained
    least-squares problem is solved on the k-by-k chi-squared Gram matrix
    of the residuals, equilibrated by its diagonal.
    """

    def __init__(self, op) -> None:
        self._op = op
        self._window: deque = deque(maxlen=RECOMBINE_WINDOW)
        self._scratch = np.empty(op.shape[0])
        self.accepted = 0

    def _residual(self, x: np.ndarray):
        """``(r, ||r||_1)`` with ``r = x P - x``, as ``operator_residual``."""
        r = self._op.rmatvec(x) - x
        return r, float(np.abs(r).sum())

    def step(self, x: np.ndarray, tol: float):
        """The next top-level iterate and its true residual.

        That is the recombination when it is admissible and better, else
        the cycle's output ``x`` (always when ``x`` already meets ``tol``).
        """
        r, res = self._residual(x)
        if res < tol:
            return x, res
        window = self._window
        window.append((x, r))
        z = self._combine(x) if len(window) > 1 else None
        if z is None:
            return x, res
        rz, res_z = self._residual(z)
        if not res_z < res:
            return x, res
        window[-1] = (z, rz)
        self.accepted += 1
        return z, res_z

    def _combine(self, x: np.ndarray) -> Optional[np.ndarray]:
        window = self._window
        k = len(window)
        t = self._scratch
        inv_x = np.maximum(x, _WEIGHT_FLOOR)
        np.divide(1.0, inv_x, out=inv_x)
        gram = np.empty((k, k))
        for i, (_, ri) in enumerate(window):
            np.multiply(ri, inv_x, out=t)
            for j in range(i + 1):
                gram[i, j] = gram[j, i] = np.dot(t, window[j][1])
        diag = np.diag(gram)
        if not (np.all(np.isfinite(gram)) and np.all(diag > 0.0)):
            return None
        # min a^T G a s.t. sum(a) = 1, on the diagonally scaled KKT system.
        d = 1.0 / np.sqrt(diag)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = gram * np.outer(d, d)
        kkt[:k, k] = kkt[k, :k] = d
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        coef = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k] * d
        if not np.all(np.isfinite(coef)):
            return None
        z = coef[0] * window[0][0]
        for a, (xj, _) in zip(coef[1:], list(window)[1:]):
            np.multiply(xj, a, out=t)
            z += t
        total = z.sum()
        if z.min() < 0.0 or not total > 0.0:
            return None
        z /= total
        return z


@dataclass
class MultigridOptions:
    """Tuning knobs for :class:`MultigridSolver`.

    Attributes
    ----------
    tol:
        Fine-level residual tolerance on ``||x P - x||_1``.
    max_cycles:
        Maximum number of V-cycles.
    nu_pre, nu_post:
        Gauss-Jacobi smoothing sweeps before/after the coarse correction.
    coarsest_size:
        Recursion stops when a level has at most this many states; that
        level is solved directly (sparse LU).
    max_levels:
        Hard cap on the number of levels.
    cycle_type:
        ``"V"`` (one coarse correction per level per cycle) or ``"W"``
        (two: the coarse correction is repeated with re-aggregated
        weights, trading per-cycle cost for fewer cycles on hard
        problems).
    """

    tol: float = 1e-10
    max_cycles: int = 200
    nu_pre: int = 1
    nu_post: int = 1
    coarsest_size: int = 512
    max_levels: int = 25
    cycle_type: str = "V"

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")
        if self.nu_pre < 0 or self.nu_post < 0:
            raise ValueError("smoothing sweep counts must be non-negative")
        if self.nu_pre == 0 and self.nu_post == 0:
            raise ValueError(
                "at least one smoothing sweep is required for convergence "
                "of multiplicative multilevel aggregation"
            )
        if self.coarsest_size < 1:
            raise ValueError("coarsest_size must be positive")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        if self.cycle_type not in ("V", "W"):
            raise ValueError("cycle_type must be 'V' or 'W'")


class MultigridSolver:
    """Multi-level aggregation solver with a pluggable coarsening strategy.

    Parameters
    ----------
    strategy:
        Coarsening strategy (callable or registered name); defaults to
        generic pairwise strongest-coupling aggregation at every level.
    options:
        Numerical options (see :class:`MultigridOptions`).
    hierarchy:
        A prebuilt :class:`~repro.markov.context.CoarseningHierarchy`;
        when given its cached partitions *are* the strategy (construction
        is skipped, only the per-solve iterate re-weighting of the coarse
        operators remains -- the construction/use split of the solve
        context layer).  Mutually exclusive with ``strategy``.
    """

    def __init__(
        self,
        strategy: Optional[CoarseningStrategy] = None,
        options: Optional[MultigridOptions] = None,
        hierarchy=None,
    ) -> None:
        if hierarchy is not None:
            if strategy is not None:
                raise ValueError("pass either strategy or hierarchy, not both")
            strategy = hierarchy.as_strategy()
        self._strategy = strategy or _default_strategy
        self.options = options or MultigridOptions()
        self._levels_used = 0
        # Per-solve level stores: the Galerkin plan coarsening each level
        # (pattern fixed for the solve), each level's Jacobi split, and the
        # direct plan factoring the coarsest level.
        self._plans: list = []
        self._splits: dict = {}
        self._direct: Optional[DirectPlan] = None

    @property
    def levels_used(self) -> int:
        """Number of levels in the hierarchy of the most recent solve."""
        return self._levels_used

    # ------------------------------------------------------------------ #

    def solve(
        self,
        P,
        x0: Optional[np.ndarray] = None,
        monitor: Optional[SolverMonitor] = None,
        on_iterate=None,
    ) -> StationaryResult:
        """Run V-cycles until converged; returns a :class:`StationaryResult`.

        When a ``monitor`` is passed it receives one iteration event per
        V-cycle plus one :class:`~repro.markov.monitor.VCycleLevelEvent`
        per level visited in each cycle (size, nnz, aggregate count and
        the level's smoothing, coarse-build and coarsest-solve times); the
        result's ``recording`` holds the same events.  When the solve
        ends, they feed the active profile session's ``multigrid.L<k>``
        stage cells (:func:`repro.obs.profile.record_vcycles`).
        ``on_iterate(cycle, x)`` is called with the fine-level iterate
        after every V-cycle (the checkpointing attachment point).
        """
        op = as_operator(P)
        # Assembled inputs keep flowing through the hierarchy as plain CSR
        # matrices; unassembled operators stay unassembled on the fine
        # level and only their Galerkin-restricted coarse images are built.
        fine = op.P if isinstance(op, AssembledOperator) else op
        opt = self.options
        n = op.shape[0]
        x = prepare_initial_guess(n, x0)
        method = "multigrid" if opt.cycle_type == "V" else "multigrid-W"
        recorder, mon = instrument(method, n, opt.tol, monitor)
        start = time.perf_counter()
        converged = False
        recombiner = _Recombiner(op)
        try:
            for cycle in range(1, opt.max_cycles + 1):
                x = self._vcycle(fine, x, level=0, cycle=cycle, mon=mon)
                x, res = recombiner.step(x, opt.tol)
                if on_iterate is not None:
                    on_iterate(cycle, x)
                mon.iteration_finished(cycle, res, time.perf_counter() - start)
                if res < opt.tol:
                    converged = True
                    break
        finally:
            self._plans = []
            self._splits = {}
            self._direct = None
            events = recorder.vcycle_events
            self._levels_used = 1 + max((e.level for e in events), default=-1)
            record_vcycles(events)
        elapsed = time.perf_counter() - start
        residual = recorder.last_residual()
        if residual is None:
            residual = operator_residual(op, x)
        mon.solve_finished(converged, recorder.n_iterations, residual, elapsed)
        return StationaryResult(
            distribution=x,
            iterations=recorder.n_iterations,
            residual=residual,
            converged=converged,
            method=method,
            residual_history=recorder.residual_history,
            solve_time=elapsed,
            recombinations=recombiner.accepted,
            recording=recorder,
        )

    # ------------------------------------------------------------------ #

    def _smooth(self, P, x: np.ndarray, sweeps: int, level: int) -> np.ndarray:
        # The fine split holds for the whole solve; a coarse level's split
        # comes from the plan that built it and is released when that
        # level's correction returns.
        split = self._splits.get(level)
        if split is None:
            if level == 0:
                split = jacobi_split(P)
            else:
                split = self._plans[level - 1].split(P)
            self._splits[level] = split
        return jacobi_sweeps(P, x, sweeps, split=split)

    def _plan(self, P, partition: Partition, level: int) -> GalerkinPlan:
        """The level's Galerkin plan, built on the first cycle of a solve.

        Rebuilt (with every plan below it) only when the strategy hands
        back a different partition, which value-driven strategies may do.
        """
        plans = self._plans
        if level < len(plans):
            known = plans[level].partition
            if known is partition or np.array_equal(
                known.block_of, partition.block_of
            ):
                return plans[level]
            del plans[level:]
        plan = GalerkinPlan(P, partition)
        plans.append(plan)
        return plan

    def _coarsest_solve(self, P, x: np.ndarray) -> np.ndarray:
        if isinstance(P, InstrumentedOperator) and isinstance(
            P.inner, AssembledOperator
        ):
            # Profiling must not change the numerical path: an instrumented
            # assembled fine level still gets the direct coarsest solve.
            P = P.inner.P
        if sp.issparse(P):
            # One symbolic factorization per solve, weighted by the first
            # coarse iterate; rebuilt only if the coarsest pattern moves
            # (the index arrays a Galerkin plan shares pass by identity).
            plan = self._direct
            if plan is None or not plan.matches(P):
                plan = self._direct = DirectPlan(P, weights=x)
            return plan.solve(P)
        # An unassembled operator small enough to be its own coarsest
        # level: keep the no-materialization guarantee and solve it with
        # matrix-free power iteration seeded from the current iterate.
        return solve_power(P, tol=self.options.tol, x0=x).distribution

    def _vcycle(
        self,
        P,
        x: np.ndarray,
        level: int,
        cycle: int = 0,
        mon: SolverMonitor = NULL_MONITOR,
    ) -> np.ndarray:
        opt = self.options
        n = P.shape[0]
        nnz = int(P.nnz) if sp.issparse(P) else int(getattr(P, "nnz", 0))
        clock = time.perf_counter
        pre_time = post_time = coarse_time = coarsest_time = 0.0
        coarsest = n <= opt.coarsest_size or level + 1 >= opt.max_levels
        partition = None
        if not coarsest:
            if opt.nu_pre:
                t0 = clock()
                x = self._smooth(P, x, opt.nu_pre, level)
                pre_time = clock() - t0
            partition = self._strategy(level, P)
            if partition is not None and partition.n_blocks >= n:
                partition = None
        if partition is not None:
            gamma = 2 if opt.cycle_type == "W" else 1
            t0 = clock()
            plan = self._plan(P, partition, level)
            coarse_time = clock() - t0
            for _ in range(gamma):
                w = np.maximum(x, _WEIGHT_FLOOR)
                t0 = clock()
                C = plan.coarse(P, w)
                coarse_time += clock() - t0
                coarse_x0 = np.bincount(
                    partition.block_of, weights=w, minlength=partition.n_blocks
                )
                coarse_x0 = coarse_x0 / coarse_x0.sum()
                coarse_x = self._vcycle(C, coarse_x0, level + 1, cycle, mon)
                self._splits.pop(level + 1, None)
                x = disaggregate(w, coarse_x, partition)
                if opt.nu_post:
                    t0 = clock()
                    x = self._smooth(P, x, opt.nu_post, level)
                    post_time += clock() - t0
        elif coarsest or n <= 8 * opt.coarsest_size:
            # The coarsest level, or a strategy that declined to coarsen a
            # level small enough to solve directly.
            t0 = clock()
            x = self._coarsest_solve(P, x)
            coarsest_time = clock() - t0
        else:
            # Declined, and too large for a direct solve: keep smoothing.
            t0 = clock()
            x = self._smooth(P, x, opt.nu_post or 1, level)
            post_time = clock() - t0
        mon.vcycle_level(VCycleLevelEvent(
            cycle, level, n, nnz,
            0 if partition is None else partition.n_blocks,
            pre_time, post_time, coarse_time, coarsest_time,
        ))
        return x


def solve_multigrid(
    P,
    strategy=None,
    tol: float = 1e-10,
    max_cycles: int = 200,
    x0: Optional[np.ndarray] = None,
    nu_pre: int = 1,
    nu_post: int = 1,
    coarsest_size: int = 512,
    cycle_type: str = "V",
    monitor: Optional[SolverMonitor] = None,
    on_iterate=None,
    hierarchy=None,
) -> StationaryResult:
    """Convenience wrapper around :class:`MultigridSolver`.

    ``strategy`` may be a callable, a registered coarsening name
    (see :func:`coarsening_names`), or ``None`` for the generic pairwise
    default; ``hierarchy`` takes a prebuilt
    :class:`~repro.markov.context.CoarseningHierarchy` instead.
    """
    options = MultigridOptions(
        tol=tol,
        max_cycles=max_cycles,
        nu_pre=nu_pre,
        nu_post=nu_post,
        coarsest_size=coarsest_size,
        cycle_type=cycle_type,
    )
    if hierarchy is None and isinstance(strategy, str):
        strategy = resolve_strategy(strategy, as_operator(P))
    return MultigridSolver(
        strategy=strategy, options=options, hierarchy=hierarchy
    ).solve(P, x0=x0, monitor=monitor, on_iterate=on_iterate)


@register_solver(
    "multigrid",
    matrix_free=True,
    description="multi-level aggregation V/W-cycles (the paper's solver)",
    default_max_iter=200,
    fallback_priority=10,
)
def _dispatch_multigrid(P, *, max_iter=None, context=None, hierarchy=None, **kwargs):
    if context is not None and hierarchy is None:
        hierarchy = context.hierarchy_for(P)
    if max_iter is not None:
        kwargs["max_cycles"] = max_iter
    return solve_multigrid(P, hierarchy=hierarchy, **kwargs)
