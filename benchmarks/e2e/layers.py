"""Per-layer metrics of a traced pass, read from what the program exposes.

Sources: ``repro.obs`` spans (``cdr.build_tpm``, ``markov.solve``,
``cdr.measures``, ``scenario.*``), the ``repro.obs.profile`` session
(per-level multigrid stage records and per-role operator applies), the
sweep's ``SolveContext.stats()`` and ``exec_stats``, and the benchmark's
own request timers.  Nothing inside ``src/`` is added for this.

Every metric is reported for every workload.  A layer a workload
bypasses reads 0; to keep such constant zeros out of the time metrics,
layers that only some workloads exercise are reported as counts or as
shares of the time of the layer that contains them, and only layers all
four workloads exercise are reported in seconds.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["LAYER_METRICS", "KERNEL_ROLES", "layer_metrics"]

#: Operator roles whose applies are broken out (``repro.obs.profile``).
KERNEL_ROLES = (
    "solver.multigrid",
    "solver.krylov",
    "measure.first_passage",
    "measure.expected_value",
    "measure.tv_settling",
)

#: name -> unit, in report order.
LAYER_METRICS: Dict[str, str] = {
    "cdr.build_tpm.s": "s",
    "markov.solve.s": "s",
    "measures.s": "s",
    "kernels.rmatvec.s": "s",
    "multigrid.cycles": "count",
    "multigrid.coarse_build.L0.share": "ratio",
    "multigrid.coarse_build.Lk.share": "ratio",
    "multigrid.smooth.share": "ratio",
    "multigrid.coarsest_solve.share": "ratio",
    **{
        f"kernels.{role}.rmatvec.{field}": unit
        for role in KERNEL_ROLES
        for field, unit in (("calls", "count"), ("bytes", "B"), ("share", "ratio"))
    },
    "context.hits": "count",
    "context.misses": "count",
    "context.warm_starts": "count",
    "context.hierarchy_build.share": "ratio",
    "sweep.cycles.warm": "count",
    "sweep.cycles.cold": "count",
    "exec.completed": "count",
    "exec.retries": "count",
    "exec.requeues": "count",
    "exec.workers_lost": "count",
    "exec.busy_ratio": "ratio",
    "scenarios.build.share": "ratio",
    "scenarios.evaluate.share": "ratio",
    "scenarios.golden_mismatches": "count",
    "trace.overhead": "ratio",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _span_seconds(tracer) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for root in tracer.roots:
        for s in root.iter_spans():
            totals[s.name] = totals.get(s.name, 0.0) + s.wall_time
    return totals


def _multigrid_cycles(tracer) -> int:
    return sum(
        s.attributes.get("iterations", 0)
        for root in tracer.roots
        for s in root.iter_spans()
        if s.name == "markov.solve"
        and str(s.attributes.get("method", "")).startswith("multigrid")
    )


def layer_metrics(
    tracer, session, outcome, traced_s: float, untraced_s: float
) -> Dict[str, Tuple[float, str]]:
    """``{name: (value, unit)}`` for every name in :data:`LAYER_METRICS`.

    ``tracer`` / ``session`` are the :class:`repro.obs.Tracer` and
    :class:`repro.obs.profile.ProfileSession` active during the traced
    pass, ``outcome`` its :class:`~benchmarks.e2e.workloads.Outcome`, and
    ``traced_s`` / ``untraced_s`` the request seconds of the same pass
    with and without them.
    """
    spans = _span_seconds(tracer)
    solve_s = spans.get("markov.solve", 0.0)
    stages = {"L0": 0.0, "Lk": 0.0, "smooth": 0.0, "coarsest": 0.0}
    for role, ops in session.operators.items():
        if not role.startswith("multigrid.L"):
            continue
        seconds = {kind: cell[1] for kind, cell in ops.items()}
        stages["L0" if role == "multigrid.L0" else "Lk"] += seconds.get("coarse_build", 0.0)
        stages["smooth"] += seconds.get("smooth.pre", 0.0) + seconds.get("smooth.post", 0.0)
        stages["coarsest"] += seconds.get("coarsest_solve", 0.0)
    applies = {
        role: ops["rmatvec"]
        for role, ops in session.operators.items()
        if "rmatvec" in ops
    }
    kernel_s = sum(cell[1] for cell in applies.values())
    notes = outcome.notes
    curves = {path: max(1, len(s)) for path, s in outcome.samples.items()}
    run_s = spans.get("scenario.run", 0.0)

    values: Dict[str, float] = {
        "cdr.build_tpm.s": spans.get("cdr.build_tpm", 0.0),
        "markov.solve.s": solve_s,
        "measures.s": spans.get("cdr.measures", 0.0),
        "kernels.rmatvec.s": kernel_s,
        "multigrid.cycles": _multigrid_cycles(tracer),
        "multigrid.coarse_build.L0.share": _share(stages["L0"], solve_s),
        "multigrid.coarse_build.Lk.share": _share(stages["Lk"], solve_s),
        "multigrid.smooth.share": _share(stages["smooth"], solve_s),
        "multigrid.coarsest_solve.share": _share(stages["coarsest"], solve_s),
        "context.hits": notes.get("context.hierarchy_hits", 0),
        "context.misses": notes.get("context.hierarchy_misses", 0),
        "context.warm_starts": notes.get("context.warm_starts", 0),
        "context.hierarchy_build.share": _share(
            notes.get("context.hierarchy_build_seconds", 0.0),
            notes.get("warm_curve_s", 0.0),
        ),
        "sweep.cycles.warm": notes.get("sweep.cycles.warm", 0) / curves["a"],
        "sweep.cycles.cold": notes.get("sweep.cycles.cold", 0) / curves["b"],
        "exec.completed": notes.get("exec.completed", 0),
        "exec.retries": notes.get("exec.retries", 0),
        "exec.requeues": notes.get("exec.requeues", 0),
        "exec.workers_lost": notes.get("exec.workers_lost", 0),
        "exec.busy_ratio": _share(
            notes.get("exec.busy_s", 0.0), notes.get("exec.capacity_s", 0.0)
        ),
        "scenarios.build.share": _share(spans.get("scenario.build", 0.0), run_s),
        "scenarios.evaluate.share": _share(spans.get("scenario.evaluate", 0.0), run_s),
        "scenarios.golden_mismatches": notes.get("golden_mismatches", 0),
        "trace.overhead": _share(traced_s, untraced_s),
    }
    for role in KERNEL_ROLES:
        calls, seconds, nbytes = applies.get(role, (0, 0.0, 0))
        values[f"kernels.{role}.rmatvec.calls"] = calls
        values[f"kernels.{role}.rmatvec.bytes"] = nbytes
        values[f"kernels.{role}.rmatvec.share"] = _share(seconds, kernel_s)
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
