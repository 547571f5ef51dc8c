"""Command-line interface: ``python -m repro <command> ...``.

The commands mirror the library's main entry points:

``analyze``
    One design point: build, solve, print the paper-style report plus the
    performance measures (optionally the ASCII phase-error density).
``sweep``
    Sweep one :class:`~repro.core.spec.CDRSpec` field over a list of
    values and print the results table (the Figure-5 workflow).
``acquire``
    Lock-acquisition figures: worst-case / mean lock times and the
    lock-probability curve checkpoints.
``stats``
    Pretty-print a run manifest written by ``--metrics``.
``solvers``
    List the registered stationary solvers (with their matrix-free
    capability) and TPM backends -- the ``--solver`` / ``--backend``
    choices.
``kernels``
    Show the matvec kernel tiers (numpy / cext): which are
    available in this environment, why the others are not, and which one
    ``$REPRO_KERNELS`` currently selects.
``faults``
    Run the deterministic fault-injection battery
    (:mod:`repro.resilience.faults`) and report whether every injected
    fault produced its expected typed diagnosis.

``analyze`` and ``sweep`` also take the resilience flags: ``--resilient``
runs guarded solves with declarative fallback escalation,
``--checkpoint PATH`` persists progress (solver snapshots for
``analyze``, per-point ledgers for ``sweep``), and ``--resume`` continues
a previous run from that checkpoint.

``analyze``, ``sweep`` and ``acquire`` all accept ``--metrics PATH``: the
run executes under a :mod:`repro.obs` tracer and writes a
``repro.run-trace/1`` manifest (spans, stage timings, versions, peak RSS,
result digests, the embedded solver trace, and a Prometheus-renderable
metrics snapshot) to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from repro import (
    CDRSpec,
    analyze_acquisition,
    analyze_cdr,
    lock_probability_curve,
    sweep_parameter,
)
from repro.core import format_pdf_ascii, format_table
from repro import obs

__all__ = ["main", "build_parser"]

_SPEC_FIELDS = {
    "n_phase_points": int,
    "n_clock_phases": int,
    "counter_length": int,
    "transition_density": float,
    "max_run_length": int,
    "nw_std": float,
    "nw_atoms": int,
    "nr_max": float,
    "nr_mean": float,
    "backend": str,
}


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = CDRSpec()
    for field, ftype in _SPEC_FIELDS.items():
        parser.add_argument(
            f"--{field.replace('_', '-')}",
            dest=field,
            type=ftype,
            default=getattr(defaults, field),
            help=f"CDRSpec.{field} (default: %(default)s)",
        )


def _spec_from_args(args: argparse.Namespace) -> CDRSpec:
    return CDRSpec(**{field: getattr(args, field) for field in _SPEC_FIELDS})


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="trace the run and write a repro.run-trace/1 manifest "
             "(spans, metrics, versions, digests) to PATH; inspect it "
             "with `repro stats PATH`")


def _add_resilience_arguments(
    parser: argparse.ArgumentParser, *, interval: bool
) -> None:
    parser.add_argument(
        "--resilient", action="store_true",
        help="run guarded solves with fallback escalation (numerical "
             "guards, typed diagnoses, solver-chain retries)")
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="persist progress to PATH so an interrupted run can be "
             "continued with --resume")
    if interval:
        parser.add_argument(
            "--checkpoint-interval", type=int, default=25, metavar="N",
            help="snapshot the solver every N iterations "
                 "(default: %(default)s)")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the --checkpoint file instead of starting over")


class _RunObservation(contextlib.AbstractContextManager):
    """Optional per-run tracing and profiling.

    ``--metrics`` activates the tracer plus an operator-profile session
    (so the manifest's ``profile`` section carries per-operator
    matvec/rmatvec counts, bytes and wall time); ``--profile-stacks`` /
    ``--profile-speedscope`` additionally run the deterministic stack
    profiler and export the capture on exit.
    """

    def __init__(
        self,
        metrics_path: Optional[str],
        stacks_path: Optional[str] = None,
        speedscope_path: Optional[str] = None,
    ) -> None:
        self.path = metrics_path
        self.stacks_path = stacks_path
        self.speedscope_path = speedscope_path
        self.tracer = obs.Tracer() if metrics_path else None
        self.session = None
        self._cm = None
        self._profile_cm = None
        want_stacks = bool(stacks_path or speedscope_path)
        if metrics_path or want_stacks:
            self._profile_cm = obs.profiled(stacks=want_stacks)

    def __enter__(self) -> "_RunObservation":
        if self.tracer is not None:
            self._cm = obs.use_tracer(self.tracer)
            self._cm.__enter__()
        if self._profile_cm is not None:
            self.session = self._profile_cm.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        if self._profile_cm is not None:
            # Stops the stack profiler, so the capture is complete before
            # the flamegraph exports below.
            self._profile_cm.__exit__(*exc)
            if self.stacks_path:
                self.session.write_collapsed(self.stacks_path)
                print(f"collapsed stacks written to {self.stacks_path}",
                      file=sys.stderr)
            if self.speedscope_path:
                self.session.write_speedscope(self.speedscope_path)
                print(f"speedscope profile written to {self.speedscope_path}",
                      file=sys.stderr)
        if self._cm is not None:
            self._cm.__exit__(*exc)
        return False

    def write(self, kind: str, spec=None, analysis=None, results=None) -> None:
        if self.tracer is None:
            return
        manifest = obs.build_run_manifest(
            kind=kind, spec=spec, analysis=analysis, tracer=self.tracer,
            results=results,
        )
        obs.write_run_manifest(self.path, manifest)
        print(f"run manifest written to {self.path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Stochastic BER / cycle-slip analysis of digital CDR circuits "
            "(Demir & Feldmann, DATE 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one design point")
    _add_spec_arguments(p_an)
    p_an.add_argument("--solver", default="auto",
                      help="stationary solver (default: %(default)s)")
    p_an.add_argument("--tol", type=float, default=1e-10)
    p_an.add_argument("--plot", action="store_true",
                      help="print the ASCII phase-error density")
    p_an.add_argument("--json", action="store_true",
                      help="emit the analysis as JSON instead of the report")
    p_an.add_argument("--trace", metavar="PATH", default=None,
                      help="record per-iteration solver telemetry and write "
                           "it as a JSON trace to PATH")
    p_an.add_argument("--profile-stacks", metavar="PATH", default=None,
                      help="capture a deterministic profile of the run and "
                           "write collapsed stacks (flamegraph.pl / "
                           "speedscope input) to PATH")
    p_an.add_argument("--profile-speedscope", metavar="PATH", default=None,
                      help="capture a deterministic profile and write a "
                           "speedscope JSON document to PATH")
    _add_resilience_arguments(p_an, interval=True)
    _add_metrics_argument(p_an)

    p_sw = sub.add_parser("sweep", help="sweep one spec field")
    _add_spec_arguments(p_sw)
    p_sw.add_argument("--parameter", required=True, choices=sorted(_SPEC_FIELDS),
                      help="spec field to sweep")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated values, e.g. 1,2,4,8")
    p_sw.add_argument("--solver", default="auto")
    p_sw.add_argument("--tol", type=float, default=1e-10)
    p_sw.add_argument("--warm-start", action="store_true",
                      help="share one solve context across the sweep: "
                           "coarsening hierarchies are built once per chain "
                           "structure and each point warm-starts from the "
                           "previous solution (off by default so checkpoint "
                           "replay stays bit-identical); with --jobs, warm "
                           "starts run along deterministic per-worker "
                           "lineages instead of a shared context")
    p_sw.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="run the sweep on an elastic pool of N worker "
                           "processes: killed/hung workers are respawned and "
                           "their points requeued exactly once; falls back "
                           "to serial execution if the pool cannot be "
                           "sustained (default: in-process serial sweep)")
    p_sw.add_argument("--point-timeout", type=float, default=None,
                      metavar="SECONDS", dest="point_timeout",
                      help="per-point wall-clock budget under --jobs; a "
                           "point running longer is killed and retried "
                           "(PointTimeout)")
    p_sw.add_argument("--max-retries", type=int, default=2, metavar="N",
                      help="retries per point for infrastructure faults "
                           "(worker lost, timeout, corrupt payload) under "
                           "--jobs, with exponential backoff "
                           "(default: %(default)s)")
    _add_resilience_arguments(p_sw, interval=False)
    _add_metrics_argument(p_sw)

    p_aq = sub.add_parser("acquire", help="lock-acquisition analysis")
    _add_spec_arguments(p_aq)
    p_aq.add_argument("--lock-threshold", type=float, default=0.1,
                      help="half-width of the lock window in UI")
    p_aq.add_argument("--curve-symbols", type=int, default=0,
                      help="also print the lock-probability curve out to "
                           "this many symbols")
    _add_metrics_argument(p_aq)

    p_st = sub.add_parser(
        "stats", help="pretty-print a run manifest written by --metrics")
    p_st.add_argument("manifest", metavar="PATH",
                      help="path of a repro.run-trace/1 JSON manifest")
    p_st.add_argument("--prometheus", action="store_true",
                      help="dump the embedded Prometheus metrics snapshot "
                           "instead of the summary")

    sub.add_parser(
        "solvers",
        help="list registered stationary solvers and TPM backends")

    sub.add_parser(
        "kernels",
        help="show matvec kernel tiers (availability and active selection)")

    p_fl = sub.add_parser(
        "faults",
        help="run the deterministic fault-injection battery")
    p_fl.add_argument("--profile", choices=("quick", "full"), default="full",
                      help="scenario subset to run (default: %(default)s)")
    p_fl.add_argument("--only", metavar="NAME", action="append", default=None,
                      help="run only the named scenario (repeatable)")
    p_fl.add_argument("--suite", choices=("core", "workers", "all"),
                      default="core",
                      help="battery to run: 'core' injects numerical faults "
                           "into solves, 'workers' injects process faults "
                           "(SIGKILL, hangs, corrupt payloads, pool-start "
                           "failure) into the elastic executor "
                           "(default: %(default)s)")

    p_sc = sub.add_parser(
        "scenarios",
        help="scenario catalog: list, run, verify against goldens")
    sc_sub = p_sc.add_subparsers(dest="scenarios_command", required=True)

    sc_sub.add_parser("list", help="list the registered scenarios")

    p_run = sc_sub.add_parser("run", help="run one scenario and print its "
                                          "measures")
    p_run.add_argument("scenario", help="registered scenario name")
    p_run.add_argument("--size", default="fast",
                       help="registered size label (default: %(default)s)")
    p_run.add_argument("--backend", default=None,
                       help="TPM backend (default: the scenario's first)")
    p_run.add_argument("--solver", default=None,
                       help="stationary solver (default: the scenario's)")
    p_run.add_argument("--tol", type=float, default=None,
                       help="stationary solve tolerance "
                            "(default: the golden-generation tolerance)")
    p_run.add_argument("--json", action="store_true",
                       help="emit the run as JSON instead of the report")
    p_run.add_argument("--update-golden", action="store_true",
                       help="write the result as the checked-in golden "
                            "(with a provenance run manifest)")
    p_run.add_argument("--golden-dir", metavar="DIR", default=None,
                       help="golden directory (default: the packaged one)")

    p_vf = sc_sub.add_parser(
        "verify",
        help="re-solve scenarios on every backend and diff against goldens")
    p_vf.add_argument("scenario", nargs="*", metavar="NAME",
                      help="scenarios to verify (default: the whole catalog)")
    p_vf.add_argument("--size", default="fast",
                      help="size label to verify (default: %(default)s)")
    p_vf.add_argument("--backend", action="append", default=None,
                      metavar="NAME",
                      help="restrict to this backend (repeatable; default: "
                           "every backend each scenario registers)")
    p_vf.add_argument("--solver", default=None,
                      help="override the scenarios' default solver")
    p_vf.add_argument("--golden-dir", metavar="DIR", default=None,
                      help="golden directory (default: the packaged one)")
    p_vf.add_argument("--report", metavar="PATH", default=None,
                      help="write the verification report as JSON to PATH")
    return parser


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """Map the CLI resilience flags onto ``analyze_cdr``/``sweep`` kwargs.

    ``--checkpoint`` / ``--resume`` imply ``--resilient``: checkpoints are
    written by the resilient solve loop.
    """
    resilient = args.resilient or args.checkpoint or args.resume
    if args.resume and not args.checkpoint:
        raise ValueError("--resume requires --checkpoint PATH")
    kwargs = {}
    if resilient:
        kwargs["resilience"] = True
    if args.checkpoint:
        kwargs["checkpoint_path"] = args.checkpoint
        kwargs["resume"] = args.resume
        if getattr(args, "checkpoint_interval", None) is not None:
            kwargs["checkpoint_interval"] = args.checkpoint_interval
    return kwargs


def _print_resilience_events(events) -> None:
    if not events:
        return
    from repro.obs.manifest import _format_resilience_event

    print("resilience trail:", file=sys.stderr)
    for ev in events:
        print(f"  {_format_resilience_event(ev)}", file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    solver_kwargs = _resilience_kwargs(args)
    with _RunObservation(
        args.metrics,
        stacks_path=args.profile_stacks,
        speedscope_path=args.profile_speedscope,
    ) as obs_run:
        analysis = analyze_cdr(
            spec, solver=args.solver, tol=args.tol, **solver_kwargs
        )
        obs_run.write(
            kind="analysis",
            spec=spec,
            analysis=analysis,
            results={
                "ber": analysis.ber,
                "ber_discrete": analysis.ber_discrete,
                "slip_rate": analysis.slip_rate,
                "mean_symbols_between_slips": analysis.mean_symbols_between_slips,
            },
        )
    _print_resilience_events(getattr(analysis, "resilience_events", None))
    if args.trace:
        # Every solver records its solve (the winning attempt's, on a
        # resilient run) -- export that recording.
        analysis.solver_recording.write_trace(args.trace)
        print(f"solver trace written to {args.trace}", file=sys.stderr)
    if args.json:
        from repro.core import analysis_to_json

        print(analysis_to_json(analysis, include_pdf=args.plot, indent=2))
        return 0
    print(spec.describe())
    if args.plot:
        values, probs = analysis.phase_error_pdf()
        print(format_pdf_ascii(values, probs, title="phase error PDF"))
    print(analysis.report())
    print(f"BER (Gaussian tail)        : {analysis.ber:.3e}")
    print(f"BER (discretized tail)     : {analysis.ber_discrete:.3e}")
    print(f"cycle-slip rate            : {analysis.slip_rate:.3e} /symbol")
    print(f"mean symbols between slips : {analysis.mean_symbols_between_slips:.3e}")
    print(f"phase mean / rms (UI)      : "
          f"{analysis.phase_stats['mean_ui']:+.4f} / {analysis.phase_stats['rms_ui']:.4f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    caster = _SPEC_FIELDS[args.parameter]
    try:
        values = [caster(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        print(f"error: bad --values: {exc}", file=sys.stderr)
        return 2
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return 2
    kwargs = _resilience_kwargs(args)
    if args.warm_start:
        kwargs["warm_start"] = True
    if args.jobs is not None:
        if args.jobs < 1:
            print("error: --jobs must be at least 1", file=sys.stderr)
            return 2
        kwargs["jobs"] = args.jobs
        kwargs["point_timeout_s"] = args.point_timeout
        kwargs["max_retries"] = args.max_retries
    elif args.point_timeout is not None:
        print("error: --point-timeout requires --jobs (timeouts are "
              "enforced across a process boundary)", file=sys.stderr)
        return 2
    with _RunObservation(args.metrics) as obs_run:
        records = sweep_parameter(
            spec, args.parameter, values, solver=args.solver, tol=args.tol,
            **kwargs,
        )
        obs_run.write(
            kind="sweep",
            spec=spec,
            results={
                "parameter": args.parameter,
                "records": list(records),
                "failed_points": records.failed_points,
                "resumed_points": records.resumed_points,
                "context_stats": records.context_stats,
                "exec_stats": records.exec_stats,
            },
        )
    print(format_table(
        records,
        columns=[args.parameter, "ber", "slip_rate", "phase_rms",
                 "n_states", "solve_time_s"],
    ))
    if (records.resumed_points or records.failed_points
            or records.context_stats or records.exec_stats):
        print(records.summary(), file=sys.stderr)
    return 1 if records.failed_points and not records else 0


def _cmd_acquire(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    print(spec.describe())
    with _RunObservation(args.metrics) as obs_run:
        model = spec.build_model()
        acq = analyze_acquisition(model, locked_threshold_ui=args.lock_threshold)
        curve = None
        if args.curve_symbols > 0:
            curve = lock_probability_curve(
                model, args.curve_symbols,
                locked_threshold_ui=args.lock_threshold,
            )
        obs_run.write(
            kind="acquire",
            spec=spec,
            results={
                "mean_from_uniform": acq.mean_from_uniform,
                "worst_case_symbols": acq.worst_case_symbols,
                "worst_case_phase_ui": acq.worst_case_phase_ui,
                "lock_threshold_ui": args.lock_threshold,
            },
        )
    print(acq.summary())
    if curve is not None:
        checkpoints = sorted(
            {0, args.curve_symbols}
            | {args.curve_symbols * k // 8 for k in range(1, 8)}
        )
        for k in checkpoints:
            print(f"  P(locked at symbol {k:>6}) = {curve[k]:.4f}")
    return 0


def _cmd_solvers(args: argparse.Namespace) -> int:
    from repro.markov.registry import backend_table, solver_table

    print("stationary solvers (--solver):")
    for entry in solver_table():
        mf = "matrix-free" if entry.matrix_free else "needs-csr  "
        print(f"  {entry.name:<13} {mf}  {entry.description}")
    print("TPM backends (--backend):")
    for backend in backend_table():
        print(f"  {backend.name:<13} {backend.description}")
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    import os

    from repro.kernels import (
        KERNEL_ENV,
        active_tier,
        tier_availability,
    )

    selection = os.environ.get(KERNEL_ENV, "auto") or "auto"
    try:
        active = active_tier()
    except RuntimeError as exc:
        # A forced tier that cannot load: show the listing anyway, with
        # the failure as the headline, and exit nonzero.
        print(f"error: {exc}", file=sys.stderr)
        active = None
    print(f"matvec kernel tiers (${KERNEL_ENV}={selection}):")
    for tier, reason in tier_availability().items():
        if tier == active:
            status = "active"
        elif reason is None:
            status = "available"
        else:
            status = f"unavailable: {reason}"
        print(f"  {tier:<7} {status}")
    return 0 if active is not None else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.resilience.faults import format_fault_report, run_fault_suite

    outcomes = run_fault_suite(
        profile=args.profile, names=args.only, suite=args.suite
    )
    print(format_fault_report(outcomes))
    missed = [o for o in outcomes if not o.caught]
    return 1 if missed else 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        DEFAULT_RUN_TOL,
        generate_golden,
        run_scenario,
        scenario_table,
        verify_catalog,
    )

    if args.scenarios_command == "list":
        for scenario in scenario_table():
            print(f"{scenario.name:<22} {scenario.title}")
            print(f"{'':<22} measures: {', '.join(scenario.measures)}")
            print(f"{'':<22} backends: {', '.join(scenario.backends)}; "
                  f"sizes: {', '.join(sorted(scenario.sizes))}; "
                  f"cite: {scenario.citation}")
        return 0

    if args.scenarios_command == "run":
        tol = DEFAULT_RUN_TOL if args.tol is None else args.tol
        if args.update_golden:
            run = generate_golden(
                args.scenario, size=args.size, backend=args.backend,
                solver=args.solver, tol=tol, directory=args.golden_dir,
            )
            print(f"golden updated for {run.scenario}[{run.size}] "
                  f"(backend {run.backend}, solver {run.solver})",
                  file=sys.stderr)
        else:
            run = run_scenario(
                args.scenario, size=args.size, backend=args.backend,
                solver=args.solver, tol=tol,
            )
        if args.json:
            print(json.dumps(run.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"scenario {run.scenario} size={run.size} "
                  f"backend={run.backend} solver={run.solver} "
                  f"n_states={run.n_states} "
                  f"({run.elapsed_seconds:.2f} s)")
            for name in sorted(run.measures):
                print(f"  {name:<26} {run.measures[name]:.6e}")
        return 0

    # verify
    report = verify_catalog(
        names=args.scenario or None,
        size=args.size,
        backends=args.backend,
        solver=args.solver,
        directory=args.golden_dir,
    )
    print(report.describe())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"verification report written to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    manifest = obs.load_run_manifest(args.manifest)
    if args.prometheus:
        metrics = manifest.get("metrics") or {}
        text = metrics.get("prometheus", "")
        if not text and metrics.get("snapshot"):
            # Manifests carrying only the JSON snapshot (older schema
            # versions, size-stripped artifacts) are re-rendered with full
            # # HELP / # TYPE headers and escaped label values.
            from repro.obs.metrics import render_snapshot_prometheus

            text = render_snapshot_prometheus(metrics["snapshot"])
        print(text, end="" if text.endswith("\n") else "\n")
        return 0
    print(obs.format_run_manifest(manifest))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Every diagnosable failure -- bad arguments, capability mismatches,
    and the whole typed resilience taxonomy (solver divergence,
    exhausted fallback chains, corrupted checkpoints, budget breaches)
    -- is reported as a one-line ``error:`` message with a nonzero exit
    code, never a raw traceback.
    """
    from repro.markov import OperatorCapabilityError
    from repro.resilience import ResilienceError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "solvers":
            return _cmd_solvers(args)
        if args.command == "kernels":
            return _cmd_kernels(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        return _cmd_acquire(args)
    except (
        ValueError, OSError, ArithmeticError,
        OperatorCapabilityError, ResilienceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
