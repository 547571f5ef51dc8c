"""Run manifests: one JSON artifact telling a whole analysis's story.

A manifest (schema ``repro.run-trace/1``, the pipeline-wide extension of
the solver-level ``repro.solver-trace/1`` from :mod:`repro.markov.monitor`)
captures everything needed to audit or reproduce one run:

* the :class:`~repro.core.spec.CDRSpec` that was analyzed,
* package versions (python / numpy / scipy / repro) and the platform,
* the nested span tree (stage wall/CPU timings and structured attributes,
  see :mod:`repro.obs.tracing`) plus a flat per-stage summary,
* peak RSS of the process,
* headline results with SHA-256 digests of the stationary vector and the
  result record (regression-diffable without storing megabytes),
* the embedded per-iteration solver trace (``repro.solver-trace/1``),
* a metrics snapshot, both as JSON and as Prometheus exposition text.

The CLI writes one via ``python -m repro analyze ... --metrics out.json``
and pretty-prints one via ``python -m repro stats out.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from typing import IO, Any, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Span, Tracer

__all__ = [
    "RUN_TRACE_SCHEMA",
    "build_run_manifest",
    "write_run_manifest",
    "load_run_manifest",
    "format_run_manifest",
    "peak_rss_bytes",
    "digest_array",
]

#: Schema tag embedded in every run manifest.
RUN_TRACE_SCHEMA = "repro.run-trace/1"


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or None when unavailable."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kibibytes on Linux, bytes on macOS.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def digest_array(arr) -> str:
    """SHA-256 hex digest of an ndarray's contiguous byte image."""
    import numpy as np

    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _digest_json(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _versions() -> Dict[str, str]:
    import numpy
    import scipy

    import repro
    from repro.kernels import active_tier

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        # Which matvec kernel tier operators in this run applied through
        # (numpy / cext) -- timings are not comparable across tiers.
        "kernels": active_tier(),
    }


def _platform() -> Dict[str, str]:
    import platform

    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "python_implementation": platform.python_implementation(),
    }


def build_run_manifest(
    *,
    kind: str = "analysis",
    spec: Any = None,
    analysis: Any = None,
    tracer: Optional[Tracer] = None,
    results: Optional[Dict[str, Any]] = None,
    solver_trace: Optional[Dict[str, Any]] = None,
    registry: Optional[MetricsRegistry] = None,
    argv: Optional[List[str]] = None,
    resilience: Optional[List[Dict[str, Any]]] = None,
    profile: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a ``repro.run-trace/1`` manifest dict.

    Every argument is optional so the same builder serves analyses,
    sweeps, acquisition runs and benchmarks; pass whatever the run
    produced and the manifest records that subset.

    Parameters
    ----------
    kind:
        Free-form run category (``analysis`` / ``sweep`` / ``acquire`` /
        ``benchmark`` ...).
    spec:
        A :class:`~repro.core.spec.CDRSpec` or an already-serialized dict.
    analysis:
        A :class:`~repro.core.analyzer.CDRAnalysis`; contributes headline
        results, digests, stage timings, the span tree and the embedded
        solver trace when not given explicitly.
    tracer:
        The run's :class:`~repro.obs.tracing.Tracer`; its root spans
        become the manifest's ``spans`` (overriding ``analysis.trace``).
    results:
        Extra result fields merged over the analysis-derived ones.
    solver_trace:
        A ``repro.solver-trace/1`` dict (e.g.
        ``RecordingMonitor.to_trace()``); defaults to the recording the
        analyzer captured.
    registry:
        Metrics registry to snapshot; defaults to the process-wide one.
    argv:
        Command line to record (defaults to ``sys.argv`` of the process).
    resilience:
        Structured resilience events (solver attempts, escalations,
        backend degradations, checkpoint resumes, fault injections);
        defaults to ``analysis.resilience_events`` when the analysis ran
        on the resilient path.
    profile:
        A ``repro.profile/1`` snapshot dict (hot-path operator
        attribution); defaults to the active
        :class:`repro.obs.profile.ProfileSession`'s snapshot when one is
        open while the manifest is built, else the section is omitted.
    """
    registry = get_registry() if registry is None else registry

    if profile is None:
        from repro.obs.profile import get_profile_session

        session = get_profile_session()
        if session is not None and session.operators:
            profile = session.snapshot()

    spec_dict: Optional[Dict[str, Any]] = None
    if spec is None and analysis is not None:
        spec = getattr(analysis, "spec", None)
    if spec is not None:
        if isinstance(spec, dict):
            spec_dict = spec
        else:
            from repro.core.serialize import spec_to_dict

            spec_dict = spec_to_dict(spec)

    spans: List[Dict[str, Any]] = []
    stages: Dict[str, float] = {}
    if tracer is not None:
        spans = tracer.to_dicts()
        for root in tracer.roots:
            for name, seconds in root.stage_seconds().items():
                stages[name] = stages.get(name, 0.0) + seconds
    elif analysis is not None and getattr(analysis, "trace", None) is not None:
        spans = [analysis.trace.to_dict()]
    if analysis is not None:
        # The analyzer's canonical stage summary wins over raw span sums.
        stages.update(getattr(analysis, "stage_seconds", {}) or {})

    result_record: Dict[str, Any] = {}
    digests: Dict[str, str] = {}
    if analysis is not None:
        result_record = {
            "n_states": analysis.n_states,
            "ber": analysis.ber,
            "ber_discrete": analysis.ber_discrete,
            "slip_rate": analysis.slip_rate,
            "mean_symbols_between_slips": analysis.mean_symbols_between_slips,
            "phase_stats": dict(analysis.phase_stats),
            "backend": getattr(analysis, "backend", None),
            "solver_entry": getattr(analysis, "solver_entry", None),
            "solver_method": analysis.solver_result.method,
            "solver_iterations": analysis.solver_result.iterations,
            "solver_residual": analysis.solver_result.residual,
            "solver_converged": analysis.solver_result.converged,
            # Geometric-mean residual reduction per iteration (per V-cycle
            # for multigrid) and the top-level recombinations accepted.
            "solver_convergence_rate":
                analysis.solver_result.convergence_rate(),
            "solver_recombinations": analysis.solver_result.recombinations,
        }
        digests["stationary_sha256"] = digest_array(analysis.stationary)
        if solver_trace is None and analysis.solver_recording is not None:
            solver_trace = analysis.solver_recording.to_trace()
        if resilience is None:
            resilience = getattr(analysis, "resilience_events", None) or None
    if results:
        result_record.update(results)
    if result_record:
        digests["results_sha256"] = _digest_json(result_record)
    if spec_dict is not None:
        digests["spec_sha256"] = _digest_json(spec_dict)

    return {
        "schema": RUN_TRACE_SCHEMA,
        "kind": kind,
        "created_unix": time.time(),
        "argv": list(sys.argv) if argv is None else list(argv),
        "versions": _versions(),
        "platform": _platform(),
        "spec": spec_dict,
        "spans": spans,
        "stages": stages,
        "peak_rss_bytes": peak_rss_bytes(),
        "results": result_record,
        "digests": digests,
        "solver_trace": solver_trace,
        "resilience": list(resilience) if resilience else None,
        "profile": profile,
        "metrics": {
            "snapshot": registry.to_dict(),
            "prometheus": registry.render_prometheus(),
        },
    }


def write_run_manifest(
    path_or_file: Union[str, IO[str]],
    manifest: Dict[str, Any],
    indent: int = 2,
) -> None:
    """Write a manifest as JSON to a path or open text file."""
    if manifest.get("schema") != RUN_TRACE_SCHEMA:
        raise ValueError("not a run manifest (missing/wrong schema tag)")
    if hasattr(path_or_file, "write"):
        json.dump(manifest, path_or_file, indent=indent)
        return
    with open(path_or_file, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=indent)
        fh.write("\n")


def load_run_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest back, validating its schema tag."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != RUN_TRACE_SCHEMA:
        raise ValueError(
            f"unrecognized manifest schema {manifest.get('schema')!r}; "
            f"expected {RUN_TRACE_SCHEMA!r}"
        )
    return manifest


# ---------------------------------------------------------------------- #
# pretty-printing (the `repro stats` command)
# ---------------------------------------------------------------------- #

_SPAN_ATTR_ORDER = (
    "n_states", "nnz", "memory_bytes", "method", "iterations", "residual",
    "converged", "parameter", "value", "mode", "symbols_per_second",
)


def _format_span(node: Dict[str, Any], depth: int, lines: List[str]) -> None:
    attrs = node.get("attributes", {})
    shown = []
    for key in _SPAN_ATTR_ORDER:
        if key in attrs:
            v = attrs[key]
            shown.append(f"{key}={v:.3g}" if isinstance(v, float) else f"{key}={v}")
    extra = f"  [{' '.join(shown)}]" if shown else ""
    lines.append(
        f"  {'  ' * depth}{node['name']:<{max(28 - 2 * depth, 8)}} "
        f"{node['wall_s']:9.3f} s  (cpu {node['cpu_s']:.3f} s){extra}"
    )
    for child in node.get("children", []):
        _format_span(child, depth + 1, lines)


def _format_resilience_event(ev: Dict[str, Any]) -> str:
    kind = ev.get("event", "?")
    if kind == "solver_attempt":
        line = f"[{ev.get('status', '?')}] {ev.get('method', '?')}"
        if ev.get("iterations") is not None:
            line += f": {ev['iterations']} iterations"
        if ev.get("residual") is not None:
            line += f", residual {ev['residual']:.3e}"
        if ev.get("perturbed_x0"):
            line += " (perturbed x0)"
        if ev.get("warm_x0"):
            line += " (warm x0)"
        if ev.get("error_type"):
            line += f" -- {ev['error_type']}: {ev.get('message', '')}"
        return line
    if kind == "backend_degraded":
        return (
            f"backend degraded {ev.get('from_backend', '?')} -> "
            f"{ev.get('to_backend', '?')} ({ev.get('reason', '')})"
        )
    if kind == "checkpoint_resume":
        return (
            f"resumed from checkpoint at iteration {ev.get('iteration', '?')}"
        )
    return " ".join(f"{k}={v}" for k, v in ev.items())


def _format_failures_by_cause(failed: List[Dict[str, Any]]) -> List[str]:
    """Group per-point failure entries by taxonomy family + leaf class.

    The entries carry the typed failure through the ledger round-trip
    (``taxonomy`` is the nearest resilience-taxonomy family, ``"external"``
    for exceptions from outside it), so a 40-point sweep with mixed
    failure modes reads as causes, not as 40 interchangeable errors.
    """
    groups: Dict[Any, List[Dict[str, Any]]] = {}
    for entry in failed:
        key = (entry.get("taxonomy", "external"),
               entry.get("error_type", "unknown"))
        groups.setdefault(key, []).append(entry)
    lines = [f"failures by cause ({len(failed)} point(s)):"]
    for (taxonomy, error_type) in sorted(groups):
        entries = groups[(taxonomy, error_type)]
        indices = ", ".join(str(e.get("index", "?")) for e in entries[:8])
        if len(entries) > 8:
            indices += ", ..."
        label = error_type if taxonomy in (error_type, "external") \
            else f"{taxonomy}/{error_type}"
        lines.append(
            f"  {label}: {len(entries)} point(s) [{indices}]"
        )
        message = entries[0].get("message")
        if message:
            lines.append(f"    e.g. {message}")
    return lines


def _hierarchy_sizes(trace: Optional[Dict[str, Any]]) -> List[int]:
    """State counts of the multigrid levels, fine first, from cycle 1's
    level events in a solver trace (empty when it has none)."""
    sizes: Dict[int, int] = {}
    for event in (trace or {}).get("vcycle_events") or []:
        if event.get("cycle") == 1:
            sizes.setdefault(event["level"], event["n_states"])
    return [sizes[level] for level in sorted(sizes)]


#: Stage of the ``repro stats`` stage line -> the solver-trace V-cycle
#: event fields summed into it.
_STAGE_FIELDS = (
    ("smoothing", ("pre_smooth_time", "post_smooth_time")),
    ("coarse build", ("coarse_build_time",)),
    ("coarsest solve", ("coarsest_solve_time",)),
)


def _stage_line(trace: Optional[Dict[str, Any]], solve_s: float) -> str:
    """Where a multigrid solve went: each stage's seconds summed over the
    solver trace's V-cycle events, with its share of the ``markov.solve``
    span (``solve_s``; shares are left out when it is unknown)."""
    events = (trace or {}).get("vcycle_events") or []
    parts = []
    for label, fields in _STAGE_FIELDS:
        seconds = sum(e.get(f, 0.0) for e in events for f in fields)
        share = f" ({seconds / solve_s:.1%})" if solve_s > 0 else ""
        parts.append(f"{label} {seconds:.4f} s{share}")
    whole = f" of markov.solve {solve_s:.4f} s" if solve_s > 0 else ""
    return "multigrid stages: " + ", ".join(parts) + whole


def format_run_manifest(manifest: Dict[str, Any]) -> str:
    """Human-readable rendering of a run manifest (``repro stats``)."""
    lines: List[str] = []
    created = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(manifest.get("created_unix", 0))
    )
    lines.append(f"{manifest['schema']} ({manifest.get('kind', '?')}) -- {created}")
    versions = manifest.get("versions", {})
    if versions:
        lines.append(
            "versions: " + "  ".join(f"{k} {v}" for k, v in versions.items())
        )
    rss = manifest.get("peak_rss_bytes")
    if rss:
        lines.append(f"peak RSS: {rss / 1e6:.1f} MB")
    spec = manifest.get("spec")
    if spec:
        keys = ("n_phase_points", "n_clock_phases", "counter_length",
                "nw_std", "nr_max", "nr_mean")
        lines.append(
            "spec: " + "  ".join(f"{k}={spec[k]}" for k in keys if k in spec)
        )
    spans = manifest.get("spans") or []
    if spans:
        lines.append("spans:")
        for root in spans:
            _format_span(root, 0, lines)
    results = manifest.get("results") or {}
    if results:
        lines.append("results:")
        for key, value in results.items():
            if isinstance(value, float):
                lines.append(f"  {key}: {value:.6g}")
            elif not isinstance(value, (dict, list)):
                lines.append(f"  {key}: {value}")
    exec_stats = results.get("exec_stats") or {}
    if exec_stats:
        parts = [f"jobs={exec_stats.get('jobs')}",
                 f"mode={exec_stats.get('mode')}"]
        parts += [
            f"{key}={exec_stats[key]}"
            for key in ("completed", "failed", "retries", "timeouts",
                        "workers_lost", "respawns", "warm_starts")
            if exec_stats.get(key)
        ]
        lines.append("executor: " + "  ".join(parts))
    failed = results.get("failed_points") or results.get("failed_seeds") or []
    if failed:
        lines.extend(_format_failures_by_cause(failed))
    trace = manifest.get("solver_trace")
    if trace:
        lines.append(
            f"solver trace: {trace.get('method')} -- "
            f"{trace.get('iterations')} iterations recorded, "
            f"residual {trace.get('residual'):.3e}, "
            f"{len(trace.get('vcycle_events') or [])} V-cycle level events"
        )
    resilience = manifest.get("resilience") or []
    if resilience:
        lines.append("resilience:")
        for ev in resilience:
            lines.append("  " + _format_resilience_event(ev))
    profile = manifest.get("profile") or {}
    hot_path = profile.get("hot_path") or []
    if hot_path:
        lines.append("hot path (operator attribution):")
        for row in hot_path:
            mb = row.get("bytes", 0) / 1e6
            lines.append(
                f"  {row['role'] + '.' + row['op']:<36} "
                f"{row['seconds']:9.4f} s  {row['calls']:>8} calls"
                + (f"  {mb:10.1f} MB" if mb else "")
            )
    if str(results.get("solver_method", "")).startswith("multigrid"):
        rate = results.get("solver_convergence_rate")
        sizes = _hierarchy_sizes(trace)
        lines.append(
            f"multigrid: {results.get('solver_iterations')} cycles, "
            + (f"contraction {rate:.3g}/cycle, " if rate is not None else "")
            + f"{results.get('solver_recombinations', 0)} recombinations "
            "accepted"
            + (", levels " + "→".join(map(str, sizes)) if sizes else "")
        )
        if sizes:
            solve_s = (manifest.get("stages") or {}).get("markov.solve", 0.0)
            lines.append(_stage_line(trace, solve_s))
    snapshot = (manifest.get("metrics") or {}).get("snapshot") or {}
    if snapshot:
        lines.append(f"metrics ({len(snapshot)}):")
        for name, payload in snapshot.items():
            samples = payload.get("samples", [])
            if payload.get("type") == "histogram":
                n = sum(s.get("count", 0) for s in samples)
                total = sum(s.get("sum", 0.0) for s in samples)
                lines.append(
                    f"  {name} ({payload['type']}): "
                    f"count={n} sum={total:.6g}"
                )
            else:
                parts = []
                for s in samples[:4]:
                    labels = dict(s.get("labels") or {})
                    tag = (
                        "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "} "
                        if labels else ""
                    )
                    parts.append(f"{tag}{s['value']:g}")
                lines.append(f"  {name} ({payload['type']}): {', '.join(parts)}")
    digests = manifest.get("digests") or {}
    if digests:
        lines.append(
            "digests: "
            + "  ".join(f"{k}={v[:12]}" for k, v in digests.items())
        )
    return "\n".join(lines)
