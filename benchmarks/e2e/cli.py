"""Command line of the end-to-end benchmark.

``measure``
    One run of one workload in this process (``run.py`` is this
    subcommand): time set-up, warm up, run the seed's requests, check
    every output, and print a human summary, the full record as one JSON
    line, and the result line ``{"correct", "attempted", "failed",
    "metrics"}`` last.  ``--trace 1`` runs the shorter traced pass and
    reports the per-layer metrics instead of the end-to-end ones.
``run``
    ``measure`` each requested workload in a fresh process, one after
    the other, and print every metric with its unit; ``--out`` keeps the
    records for ``compare``.
``compare A.json B.json``
    Verdicts per (workload, metric) against the bounds of
    ``BENCHMARK.json`` (see :mod:`benchmarks.e2e.compare`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e.compare import RESULT_SCHEMA, compare_results, format_rows, load_results
from benchmarks.e2e.stats import median, summarize

__all__ = ["main", "prepare_process"]

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOAD_NAMES = ("point-m512", "point-m2048", "ber-curve", "scenarios")

#: name -> unit of the end-to-end metrics, as in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "path_a_s.p50": "s",
    "path_b_s.p50": "s",
    "peak_rss_mb": "MiB",
}

#: Fresh interpreter launches whose median is ``setup_s``.
SETUP_LAUNCHES = 7

#: What a user's process imports for each workload before its first request.
_PROBES = {
    "point-m512": "import repro.core.analyzer",
    "point-m2048": "import repro.core.analyzer",
    "ber-curve": "import repro.cdr.sweep, repro.markov.context, repro.exec",
    "scenarios": (
        "import repro.scenarios.golden, repro.scenarios.runner\n"
        "from repro.scenarios.registry import scenario_names\n"
        "scenario_names()"
    ),
}
_BIND_TIER = "\nfrom repro.kernels import get_kernel\nget_kernel()\n"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process() -> None:
    """Pin BLAS threads, use the checkout's sources, keep caches inside it.

    Must run before numpy is imported: the thread counts are read once,
    when the BLAS library loads.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no package sources at {SRC / 'repro'}; run the benchmark "
            "from the root of a checkout of the repository"
        )
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    # The compiled kernel tier caches its shared object; keep it (and any
    # temporary files) inside the checkout.
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD / "repro-kernels")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))


def time_setup(workload: str) -> List[float]:
    """Wall seconds of fresh interpreter launches that import the
    workload's modules and bind the kernel tier.

    One untimed launch first fills the kernel and bytecode caches, which
    a user pays once per machine, not once per process.
    """
    cmd = [sys.executable, "-c", _PROBES[workload] + _BIND_TIER]
    subprocess.run(cmd, check=True)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _total(outcome) -> float:
    return sum(outcome.samples["a"]) + sum(outcome.samples["b"])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One run of ``workload``; returns the record ``run`` and ``compare`` keep."""
    nproc = os.cpu_count() or 1
    jobs = min(2, nproc)  # never more workers than CPUs
    setup = [] if traced else time_setup(workload)

    # Imported here, after prepare_process pinned the BLAS threads.
    from repro.bench.suite import environment_fingerprint
    from repro.obs import Tracer, use_tracer
    from repro.obs.profile import profiled

    from benchmarks.e2e import workloads as wl
    from benchmarks.e2e.layers import layer_metrics

    wl.warm_up(workload, jobs)
    units = (wl.traced_units if traced else wl.units_for)(workload, seconds)
    notes: Dict[str, str] = {}
    if workload == "ber-curve" and jobs < 2:
        notes["jobs2"] = f"not run: nproc={nproc} < 2; path b ran with jobs={jobs}"

    if traced:
        plain = wl.run_workload(workload, seed, units, jobs)
        tracer = Tracer()
        with use_tracer(tracer), profiled(metrics=False) as session:
            outcome = wl.run_workload(workload, seed, units, jobs)
        metrics = layer_metrics(tracer, session, outcome, _total(outcome), _total(plain))
        attempted = plain.attempted + outcome.attempted
        failures = list(plain.failures.values()) + list(outcome.failures.values())
    else:
        outcome = wl.run_workload(workload, seed, units, jobs)
        for path, samples in outcome.samples.items():
            if not samples:
                raise RuntimeError(
                    f"{workload}: no request on path {path} succeeded: "
                    f"{next(iter(outcome.failures.values()), '?')}"
                )
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": median(setup),
            "path_a_s.p50": median(outcome.samples["a"]),
            "path_b_s.p50": median(outcome.samples["b"]),
            "peak_rss_mb": rss_mib,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        attempted = outcome.attempted
        failures = list(outcome.failures.values())

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "units": units,
        "nproc": nproc,
        "jobs": jobs,
        "fingerprint": environment_fingerprint(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "paths": {p: summarize(s) for p, s in outcome.samples.items() if s},
        "setup_samples": setup,
        "notes": {**outcome.notes, **notes},
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def _result_line(record: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def _metric_lines(record: Dict[str, Any]) -> List[str]:
    lines = [
        f"{record['workload']:<12} {name:<48} {m['value']:.6g} {m['unit']}"
        for name, m in record["metrics"].items()
    ]
    lines.append(
        f"{record['workload']:<12} {'failed / attempted':<48} "
        f"{record['failed']} / {record['attempted']}"
    )
    return lines


def _load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_measure(args) -> int:
    prepare_process()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(_metric_lines(record)))
    print(json.dumps({"record": record}))
    print(_result_line(record))
    return 0


def _cmd_run(args) -> int:
    seconds = args.seconds or _load_benchmark()["run_seconds"]
    records = []
    for workload in args.workload or WORKLOAD_NAMES:
        for i in range(args.runs):
            cmd = [
                sys.executable, str(Path(__file__).with_name("run.py")),
                "--workload", workload, "--seed", str(args.seed + i),
                "--seconds", str(seconds), "--trace", "1" if args.traced else "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"error: {workload} (seed {args.seed + i}) exited with "
                      f"code {proc.returncode}", file=sys.stderr)
                return proc.returncode
            record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
            records.append(record)
            print("\n".join(_metric_lines(record)), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": RESULT_SCHEMA, "records": records}, fh, indent=1)
            fh.write("\n")
    return 0


def _cmd_compare(args) -> int:
    rows = compare_results(
        load_results(args.a), load_results(args.b), _load_benchmark()
    )
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="one run of one workload, in this process")
    p_measure.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p_measure.add_argument("--seed", type=int, required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_measure.set_defaults(func=_cmd_measure)

    p_run = sub.add_parser("run", help="each workload in a fresh process")
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                       help="repeatable; default: all four")
    p_run.add_argument("--traced", action="store_true",
                       help="the shorter traced pass: per-layer metrics")
    p_run.add_argument("--runs", type=int, default=1,
                       help="runs per workload, with seeds seed, seed+1, ...")
    p_run.add_argument("--seconds", type=float, default=None,
                       help="default: run_seconds of BENCHMARK.json")
    p_run.add_argument("--out", help="write the records here, for compare")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="verdicts of B against A")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)
