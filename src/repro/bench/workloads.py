"""The built-in benchmark battery.

Six suites, registered at import time (see :mod:`repro.bench.registry`):

``smoke``
    The CI gate: all four catalog scenarios on both backends
    (assembled and matrix-free) at their ``fast`` sizes, operator-apply
    micro-benchmarks on both backends, one small end-to-end analyze and
    the ``overhead`` rows.
``ext-op``
    ROADMAP item 1's matrix-free vs assembled trajectory: per-apply
    micro-cost at M=1024 and M=4096 (122880 states -- past the paper's
    ~1e5 practical limit), blocked rmatmat at M=1024, and end-to-end
    multigrid solves at M=128/512 on both backends (the
    ``BENCH_ext_op.json`` artifact).  Every row records the kernel tier
    it ran under.
``parallel``
    ROADMAP item 2's sweep-parallelism trajectory: one small nw_std sweep
    run serially and fanned out over 2 and 4 workers of the elastic
    executor (:mod:`repro.exec`; the ``BENCH_parallel.json`` artifact).
    Pool startup and per-worker imports are *inside* the timing on
    purpose -- that is the cost a user actually pays for a parallel
    sweep.  The multi-worker entries declare ``min_cpus`` and are
    recorded as explicit skip rows on machines too small to time them
    honestly.
``scenarios``
    The scenario grid alone (a superset marker on the same benchmarks the
    smoke suite uses), for benchmarking catalog changes in isolation.
``overhead``
    The instrumentation timings (also in ``smoke``): the default-spec
    analysis plain, traced, profiled and on the resilient path.  The
    deterministic counts behind them are asserted in ``tests/obs``.
``hierarchy``
    The solve-context trajectory: hierarchy construction cost vs cached
    reuse, and dense parameter sweeps cold vs through a
    :class:`~repro.markov.SolveContext` (shared hierarchy + warm starts)
    at two model sizes (the ``BENCH_hierarchy.json`` artifact).  The
    headline number is ``warm_vs_cold_tail_ratio`` on the M=512 chain
    (15360 states): per-point cost excluding the first (cold) point.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import register_benchmark

#: rmatvec applications per timed workload call (micro-benchmarks).
_APPLIES = 50


def _small_spec():
    from repro.core.spec import CDRSpec

    return CDRSpec(
        n_phase_points=64,
        n_clock_phases=16,
        counter_length=2,
        max_run_length=2,
        nw_std=0.08,
        nw_atoms=7,
    )


def _ext_op_spec(M: int):
    # The historical EXT-OP configuration (benchmarks/bench_ext_matrix_free).
    from repro.core.spec import CDRSpec

    return CDRSpec(
        n_phase_points=M,
        n_clock_phases=16,
        counter_length=8,
        max_run_length=2,
        nw_std=0.1,
        nw_atoms=9,
    )


# ---------------------------------------------------------------------- #
# operator-apply micro-benchmarks (one per backend)
# ---------------------------------------------------------------------- #

def _register_matvec_benchmarks() -> None:
    for backend in ("assembled", "matrix-free"):

        @register_benchmark(
            f"operator/rmatvec-{backend}",
            suites=("smoke",),
            rounds=5,
            warmup=1,
            description=f"{_APPLIES}x rmatvec through the {backend} backend "
            "at M=512",
        )
        def _factory(backend=backend):
            from repro.markov.linop import as_operator
            from repro.markov.registry import get_backend

            model = get_backend(backend).build(_ext_op_spec(512))
            op = as_operator(model.chain)
            x = np.full(op.shape[0], 1.0 / op.shape[0])

            def workload():
                y = x
                for _ in range(_APPLIES):
                    y = op.rmatvec(x)
                return {
                    "backend": backend,
                    "n_states": op.shape[0],
                    "applies": _APPLIES,
                    "checksum": float(y.sum()),
                }

            return workload


_register_matvec_benchmarks()


# ---------------------------------------------------------------------- #
# scenario x backend grid (the correctness battery as a perf battery)
# ---------------------------------------------------------------------- #

_SCENARIO_BACKENDS = ("assembled", "matrix-free")


def _register_scenario_benchmarks() -> None:
    from repro.scenarios.registry import scenario_names

    for name in scenario_names():
        for backend in _SCENARIO_BACKENDS:

            @register_benchmark(
                f"scenario/{name}@{backend}",
                suites=("smoke", "scenarios"),
                rounds=3,
                warmup=1,
                description=f"scenario {name!r} end to end on the "
                f"{backend} backend (fast size)",
            )
            def _factory(name=name, backend=backend):
                from repro.scenarios.runner import run_scenario

                def workload():
                    run = run_scenario(name, size="fast", backend=backend)
                    return {
                        "scenario": name,
                        "backend": backend,
                        "n_states": run.n_states,
                        "solver": run.solver,
                    }

                return workload


_register_scenario_benchmarks()


# ---------------------------------------------------------------------- #
# end-to-end analyze (the paper's headline pipeline)
# ---------------------------------------------------------------------- #

@register_benchmark(
    "analyze/default-small",
    suites=("smoke",),
    rounds=3,
    warmup=1,
    description="analyze_cdr on a small default-style spec (auto solver)",
)
def _bench_analyze_small():
    from repro.core.analyzer import analyze_cdr

    spec = _small_spec()

    def workload():
        res = analyze_cdr(spec, solver="auto")
        return {
            "n_states": res.n_states,
            "solver": res.solver_result.method,
            "iterations": res.solver_result.iterations,
        }

    return workload


# ---------------------------------------------------------------------- #
# instrumentation overhead (timed here, counted in tests/obs)
# ---------------------------------------------------------------------- #

def _overhead_mode(mode: str):
    """The instrumentation context of one mode (none for plain/resilient)."""
    from contextlib import nullcontext

    from repro.obs import Tracer, use_tracer
    from repro.obs.profile import profiled

    if mode == "traced":
        return use_tracer(Tracer())
    if mode == "profiled":
        return profiled(metrics=False)
    return nullcontext()


def _register_overhead_benchmarks() -> None:
    for mode in ("plain", "traced", "profiled", "resilient"):

        @register_benchmark(
            f"overhead/analyze-{mode}",
            suites=("smoke", "overhead"),
            rounds=5,
            warmup=1,
            description=f"analyze_cdr on the default spec, {mode}; compare "
            "against overhead/analyze-plain for the instrumentation cost",
        )
        def _factory(mode=mode):
            from repro.core.analyzer import analyze_cdr
            from repro.core.spec import CDRSpec

            spec = CDRSpec()
            resilience = True if mode == "resilient" else None

            def workload():
                with _overhead_mode(mode):
                    res = analyze_cdr(spec, solver="auto", resilience=resilience)
                return {
                    "mode": mode,
                    "n_states": res.n_states,
                    "iterations": res.solver_result.iterations,
                }

            return workload


_register_overhead_benchmarks()


# ---------------------------------------------------------------------- #
# EXT-OP: matrix-free vs assembled, micro and end to end
# ---------------------------------------------------------------------- #

#: Columns per blocked-apply workload call (ext-op rmatmat rows).
_BLOCK_COLUMNS = 8


def _register_ext_op_benchmarks() -> None:
    for backend in ("assembled", "matrix-free"):
        # M=1024 is the historical headline row; M=4096 (122880 states)
        # is the >=1e5-state point where matrix-free must now *beat*
        # assembled per apply (the bench-ext-op CI gate asserts it).
        for M in (1024, 4096):

            @register_benchmark(
                f"ext-op/rmatvec-{backend}-M{M}",
                suites=("ext-op",),
                rounds=5,
                warmup=1,
                description=f"{_APPLIES}x rmatvec, {backend} backend, M={M} "
                "(ROADMAP item 1's per-apply gap)",
            )
            def _micro_factory(backend=backend, M=M):
                from repro.kernels import active_tier
                from repro.markov.linop import as_operator
                from repro.markov.registry import get_backend

                model = get_backend(backend).build(_ext_op_spec(M))
                op = as_operator(model.chain)
                x = np.full(op.shape[0], 1.0 / op.shape[0])

                def workload():
                    for _ in range(_APPLIES):
                        op.rmatvec(x)
                    return {
                        "backend": backend,
                        "n_states": op.shape[0],
                        "applies": _APPLIES,
                        "kernel_tier": active_tier(),
                    }

                return workload

        @register_benchmark(
            f"ext-op/rmatmat-{backend}-M1024",
            suites=("ext-op",),
            rounds=5,
            warmup=1,
            description=f"{_APPLIES}x blocked rmatmat ({_BLOCK_COLUMNS} "
            f"columns), {backend} backend, M=1024",
        )
        def _block_factory(backend=backend):
            from repro.kernels import active_tier
            from repro.markov.linop import as_operator, operator_rmatmat
            from repro.markov.registry import get_backend

            model = get_backend(backend).build(_ext_op_spec(1024))
            op = as_operator(model.chain)
            n = op.shape[0]
            X = np.full((n, _BLOCK_COLUMNS), 1.0 / n)

            def workload():
                for _ in range(_APPLIES):
                    operator_rmatmat(op, X)
                return {
                    "backend": backend,
                    "n_states": n,
                    "applies": _APPLIES,
                    "columns": _BLOCK_COLUMNS,
                    "kernel_tier": active_tier(),
                }

            return workload

        for M in (128, 512):

            @register_benchmark(
                f"ext-op/solve-{backend}-M{M}",
                suites=("ext-op",),
                rounds=3,
                warmup=1,
                description=f"end-to-end multigrid analyze, {backend} "
                f"backend, M={M}",
            )
            def _e2e_factory(backend=backend, M=M):
                from repro.core.analyzer import analyze_cdr

                spec = _ext_op_spec(M)

                def workload():
                    res = analyze_cdr(
                        spec, backend=backend, solver="multigrid", tol=1e-10
                    )
                    return {
                        "backend": backend,
                        "M": M,
                        "n_states": res.n_states,
                        "iterations": res.solver_result.iterations,
                        "converged": bool(res.solver_result.converged),
                        "ber": float(res.ber),
                    }

                return workload


_register_ext_op_benchmarks()


# ---------------------------------------------------------------------- #
# parallel sweeps (through the elastic executor, repro.exec)
# ---------------------------------------------------------------------- #

#: The swept parameter values of the parallel benchmark's workload.
_SWEEP_VALUES = (0.06, 0.07, 0.08, 0.09, 0.10, 0.11)


def _parallel_sweep(jobs):
    """One nw_std sweep through :func:`sweep_parameter` (jobs=None: serial)."""
    from repro.cdr.sweep import sweep_parameter

    result = sweep_parameter(
        _small_spec(), "nw_std", list(_SWEEP_VALUES),
        solver="auto", jobs=jobs,
    )
    meta = {
        "jobs": jobs or 1,
        "points": len(result),
        "failed": len(result.failed_points),
        "ber_sum": float(sum(r["ber"] for r in result)),
    }
    if result.exec_stats:
        meta["mode"] = result.exec_stats["mode"]
        meta["workers_lost"] = result.exec_stats["workers_lost"]
    return meta


@register_benchmark(
    "parallel/sweep-serial",
    suites=("parallel",),
    rounds=3,
    warmup=1,
    description=f"{len(_SWEEP_VALUES)}-point nw_std sweep, serial "
    "sweep_parameter loop (the parallel baselines' denominator)",
)
def _bench_sweep_serial():
    def workload():
        return _parallel_sweep(None)

    return workload


def _register_parallel_benchmarks() -> None:
    for jobs in (2, 4):

        @register_benchmark(
            f"parallel/sweep-{jobs}jobs",
            suites=("parallel",),
            rounds=3,
            warmup=1,
            min_cpus=jobs,
            description=f"{len(_SWEEP_VALUES)}-point nw_std sweep through "
            f"the elastic executor over {jobs} worker processes "
            "(pool startup included)",
        )
        def _factory(jobs=jobs):
            def workload():
                return _parallel_sweep(jobs)

            return workload


_register_parallel_benchmarks()

# ---------------------------------------------------------------------- #
# solve contexts: hierarchy reuse and warm-started sweeps
# ---------------------------------------------------------------------- #

#: Dense nw_std grid of the hierarchy sweeps -- adjacent points differ by
#: 1e-4 in noise std, the regime of a publication-grade BER-vs-noise
#: curve, where warm starts pay the most.
_DENSE_SWEEP_VALUES = (0.1, 0.1001, 0.1002, 0.1003)


def _dense_sweep(M: int, solve_context=None):
    from repro.cdr.sweep import sweep_parameter

    return sweep_parameter(
        _ext_op_spec(M),
        "nw_std",
        list(_DENSE_SWEEP_VALUES),
        solver="multigrid",
        tol=1e-10,
        solve_context=solve_context,
    )


def _per_point_seconds(records) -> list:
    return [float(r["form_time_s"] + r["solve_time_s"]) for r in records]


def _tail_mean(xs) -> float:
    tail = xs[1:]
    return float(sum(tail) / len(tail))


def _register_hierarchy_benchmarks() -> None:
    @register_benchmark(
        "hierarchy/build-cold-M512",
        suites=("hierarchy",),
        rounds=3,
        warmup=1,
        description="build_hierarchy from scratch on the 15360-state "
        "assembled chain (what every cold multigrid solve pays)",
    )
    def _bench_build_cold():
        from repro.markov import build_hierarchy
        from repro.markov.registry import get_backend

        model = get_backend("assembled").build(_ext_op_spec(512))

        def workload():
            hierarchy = build_hierarchy(
                model.chain, strategy=model.multigrid_strategy()
            )
            return {
                "n_states": hierarchy.n_states,
                "levels": hierarchy.n_levels,
                "coarsest": hierarchy.level_sizes[-1],
            }

        return workload

    @register_benchmark(
        "hierarchy/reuse-cached-M512",
        suites=("hierarchy",),
        rounds=3,
        warmup=1,
        description="1000x SolveContext.hierarchy_for on a primed cache "
        "(the digest-lookup cost a reused hierarchy pays instead)",
    )
    def _bench_reuse_cached():
        from repro.markov import SolveContext
        from repro.markov.registry import get_backend

        model = get_backend("assembled").build(_ext_op_spec(512))
        ctx = SolveContext()
        ctx.hierarchy_for(model.chain, strategy=model.multigrid_strategy())

        def workload():
            for _ in range(1000):
                hierarchy = ctx.hierarchy_for(model.chain)
            return {
                "lookups": 1000,
                "hits": ctx.hits,
                "levels": hierarchy.n_levels,
            }

        return workload

    for M in (128, 512):

        @register_benchmark(
            f"hierarchy/sweep-cold-M{M}",
            suites=("hierarchy",),
            rounds=1,
            warmup=0,
            description=f"{len(_DENSE_SWEEP_VALUES)}-point dense nw_std "
            f"sweep at M={M}, no solve context (hierarchy rebuilt and "
            "iteration count paid in full at every point)",
        )
        def _cold_factory(M=M):
            def workload():
                records = _dense_sweep(M)
                per_point = _per_point_seconds(records)
                return {
                    "M": M,
                    "n_states": records[0]["n_states"],
                    "points": len(records),
                    "iterations": [r["iterations"] for r in records],
                    "per_point_tail_s": _tail_mean(per_point),
                }

            return workload

        @register_benchmark(
            f"hierarchy/sweep-warm-M{M}",
            suites=("hierarchy",),
            rounds=1,
            warmup=0,
            description=f"the same dense sweep at M={M} through a fresh "
            "SolveContext: one hierarchy build, every later point "
            "warm-started from its neighbor",
        )
        def _warm_factory(M=M):
            from repro.markov import SolveContext

            def workload():
                ctx = SolveContext()
                records = _dense_sweep(M, solve_context=ctx)
                per_point = _per_point_seconds(records)
                return {
                    "M": M,
                    "n_states": records[0]["n_states"],
                    "points": len(records),
                    "iterations": [r["iterations"] for r in records],
                    "warm_started": [r["warm_started"] for r in records],
                    "per_point_tail_s": _tail_mean(per_point),
                    "context": ctx.stats(),
                }

            return workload

    @register_benchmark(
        "hierarchy/speedup-M512",
        suites=("hierarchy",),
        rounds=1,
        warmup=0,
        description="cold and warm dense sweeps back to back at M=512; "
        "meta.warm_vs_cold_tail_ratio is the acceptance headline "
        "(>= 2x per point excluding the first)",
    )
    def _bench_speedup():
        from repro.markov import SolveContext

        def workload():
            cold = _per_point_seconds(_dense_sweep(512))
            ctx = SolveContext()
            warm_records = _dense_sweep(512, solve_context=ctx)
            warm = _per_point_seconds(warm_records)
            return {
                "n_states": warm_records[0]["n_states"],
                "cold_per_point_tail_s": _tail_mean(cold),
                "warm_per_point_tail_s": _tail_mean(warm),
                "warm_vs_cold_tail_ratio": _tail_mean(cold) / _tail_mean(warm),
                "warm_iterations": [r["iterations"] for r in warm_records],
                "context": ctx.stats(),
            }

        return workload


_register_hierarchy_benchmarks()
