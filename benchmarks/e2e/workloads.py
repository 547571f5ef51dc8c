"""The four end-to-end workloads and the checks on their outputs.

Every workload is a closed loop with one client: a request is issued
when the previous one has returned, the way a designer drives this batch
analysis tool.  The seed generates every input and the program receives
only the generated values.  Each workload times two *paths* with
benchmark-side ``perf_counter`` timers around the public calls:

==============  ===========================  ===========================
workload        path a                       path b
==============  ===========================  ===========================
point-m512      ``analyze_cdr``, assembled   ``analyze_cdr``, matrix-free
point-m2048     ``analyze_cdr``, assembled   ``analyze_cdr``, matrix-free
ber-curve       warm serial curve            curve over ``jobs`` workers
scenarios       assembled runs of one pass   matrix-free runs of one pass
==============  ===========================  ===========================

A failed or wrong request is counted in :attr:`Outcome.failures`, never
raised: the run goes on and reports ``failed`` of ``attempted``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cdr.sweep import sweep_parameter
from repro.core.analyzer import analyze_cdr
from repro.core.spec import CDRSpec
from repro.scenarios.golden import load_golden
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import run_scenario
from repro.scenarios.tolerance import compare_measures

__all__ = [
    "Outcome",
    "NotConverged",
    "units_for",
    "traced_units",
    "point_inputs",
    "curve_inputs",
    "battery_orders",
    "point_workload",
    "curve_workload",
    "battery_workload",
    "warm_up",
    "run_workload",
]

TOL = 1e-10
BACKENDS = ("assembled", "matrix-free")

#: The EXT-OP design of ``repro bench`` with the grid size and noise left free.
DESIGN = dict(n_clock_phases=16, counter_length=8, max_run_length=2, nw_atoms=9)

#: ``nw_std`` range of the design points: BER from about 1e-14 to 5e-4.
NW_RANGE = (0.05, 0.12)

#: Figure 4 of the paper: 13 points 0.005 apart, from a seed-drawn start.
CURVE_POINTS = 13
CURVE_STEP = 0.005
CURVE_START = (0.05, 0.055)
CURVE_M = 512

#: Noise of the warm-up request, outside every sampled input.
WARMUP_NW = 0.125

#: Seconds of ``--seconds`` budgeted per unit of each workload: a design
#: point on both backends, a curve on both paths, a battery pass.  A run's
#: unit count is derived from ``--seconds`` through these constants, never
#: from measured speed, so a parent and a change measure the same inputs.
#: On the reference machine (2 CPUs, cext kernel tier) a unit takes about
#: its budget, except a curve pair, which takes about 10 s: three pairs is
#: the fewest whose median discards one curve slowed by a noisy neighbour.
UNIT_SECONDS = {
    "point-m512": 1.25,
    "point-m2048": 6.5,
    "ber-curve": 6.5,
    "scenarios": 1.5,
}

#: Units of the shorter traced pass.
TRACED_UNITS = {"point-m512": 4, "point-m2048": 1, "ber-curve": 1, "scenarios": 2}


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def traced_units(workload: str, seconds: float) -> int:
    return min(TRACED_UNITS[workload], units_for(workload, seconds))


# ---------------------------------------------------------------------- #
# seed-driven inputs
# ---------------------------------------------------------------------- #

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def point_inputs(workload: str, seed: int, n: int) -> List[float]:
    """``n`` design-point noise levels drawn uniformly from :data:`NW_RANGE`."""
    rng = _rng(workload, seed)
    return [round(rng.uniform(*NW_RANGE), 6) for _ in range(n)]


def curve_inputs(seed: int) -> List[float]:
    """The ``nw_std`` values of one FIG4-spaced curve."""
    start = _rng("ber-curve", seed).uniform(*CURVE_START)
    return [round(start + i * CURVE_STEP, 6) for i in range(CURVE_POINTS)]


def battery_orders(seed: int, n_passes: int) -> List[List[Tuple[str, str]]]:
    """One seed-permuted order of every (scenario, backend) run per pass."""
    runs = [(name, backend) for name in scenario_names() for backend in BACKENDS]
    rng = _rng("scenarios", seed)
    orders = []
    for _ in range(n_passes):
        order = list(runs)
        rng.shuffle(order)
        orders.append(order)
    return orders


# ---------------------------------------------------------------------- #
# outcomes and checks
# ---------------------------------------------------------------------- #

@dataclass
class Outcome:
    """Timings, checks and layer counters of one pass of a workload."""

    #: Seconds per request, by path (``"a"`` / ``"b"``).
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: {"a": [], "b": []}
    )
    attempted: int = 0
    #: Operation index -> why it failed (first reason only).
    failures: Dict[int, str] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def attempt(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, key: str, amount: float) -> None:
        self.notes[key] = self.notes.get(key, 0) + amount


class NotConverged(RuntimeError):
    """A solve that stopped without reaching its tolerance."""


def solve_failure(solver_result, tol: float) -> Optional[str]:
    """Why a stationary solve does not count as converged, or None."""
    if solver_result.converged and solver_result.residual < tol:
        return None
    return (
        f"not converged: residual {solver_result.residual:.3e} after "
        f"{solver_result.iterations} cycles (tol {tol:g})"
    )


def converged_analyze(spec, **kwargs):
    """``analyze_cdr`` that raises :class:`NotConverged`, so a sweep
    records an unconverged point as failed."""
    result = analyze_cdr(spec, **kwargs)
    reason = solve_failure(result.solver_result, kwargs["tol"])
    if reason is not None:
        raise NotConverged(reason)
    return result


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #

def point_workload(M: int, nw_values: Sequence[float]) -> Outcome:
    """Each design point solved on the assembled, then the matrix-free backend.

    Checks: every solve converges with residual below :data:`TOL`, and the
    two backends agree on BER within :data:`TOL` (absolute: deep in the tail they
    differ relatively by a fraction of a percent with both converged).
    """
    out = Outcome()
    out.notes.update(cycles=0, ber_max_rel_delta=None)
    worst = 0.0
    for nw in nw_values:
        spec = CDRSpec(n_phase_points=M, nw_std=nw, **DESIGN)
        bers = []
        for path, backend in zip("ab", BACKENDS):
            op = out.attempt()
            t0 = time.perf_counter()
            try:
                result = analyze_cdr(spec, backend=backend, solver="multigrid", tol=TOL)
            except Exception as exc:  # noqa: BLE001 -- counted, the run goes on
                out.fail(op, f"{backend} nw_std={nw}: {type(exc).__name__}: {exc}")
                continue
            out.samples[path].append(time.perf_counter() - t0)
            out.add("cycles", result.solver_result.iterations)
            reason = solve_failure(result.solver_result, TOL)
            if reason is not None:
                out.fail(op, f"{backend} nw_std={nw}: {reason}")
            bers.append(result.ber)
        if len(bers) < 2:
            continue
        delta = abs(bers[0] - bers[1])
        if delta > TOL:
            out.fail(op, f"nw_std={nw}: backends disagree on BER by {delta:.3e}")
        rel = delta / max(abs(bers[0]), abs(bers[1]), 1e-300)
        if rel >= worst:
            worst = rel
            out.notes["ber_max_rel_delta"] = {
                "nw_std": nw, "ber": bers[0], "abs": delta, "rel": rel,
            }
    return out


def curve_workload(
    M: int,
    values: Sequence[float],
    n_curves: int,
    jobs: int,
) -> Outcome:
    """``n_curves`` curves on each path, alternating warm serial and pooled.

    Path a is ``sweep_parameter(warm_start=True)``, a fresh
    :class:`~repro.markov.SolveContext` per curve (``repro sweep
    --warm-start``); path b is ``sweep_parameter(jobs=jobs)``.  Checks: no
    curve has a failed or unconverged point, and every curve agrees with
    the first warm curve on each point's BER within :data:`TOL`.
    """
    base = CDRSpec(n_phase_points=M, nw_std=values[0], **DESIGN)
    out = Outcome()
    reference: Optional[Dict[float, float]] = None
    for _ in range(n_curves):
        for path in "ab":
            kwargs: Dict[str, Any] = (
                {"warm_start": True} if path == "a" else {"jobs": jobs}
            )
            ops = [out.attempt() for _ in values]
            t0 = time.perf_counter()
            try:
                result = sweep_parameter(
                    base, "nw_std", list(values), solver="multigrid", tol=TOL,
                    analyze_fn=converged_analyze, **kwargs,
                )
            except Exception as exc:  # noqa: BLE001 -- counted, the run goes on
                for op in ops:
                    out.fail(op, f"curve path {path}: {type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - t0
            out.samples[path].append(seconds)
            for entry in result.failed_points:
                out.fail(
                    ops[entry["index"]],
                    f"nw_std={entry['value']}: {entry['error_type']}: "
                    f"{entry['message']}",
                )
            bers = {record["nw_std"]: record["ber"] for record in result}
            if reference is None:
                reference = bers
            for op, value in zip(ops, values):
                if value in bers and value in reference:
                    delta = abs(bers[value] - reference[value])
                    if delta > TOL:
                        out.fail(op, f"nw_std={value}: curves disagree by {delta:.3e}")
            cycles = sum(record["iterations"] for record in result)
            if path == "a":
                out.add("sweep.cycles.warm", cycles)
                out.add("warm_curve_s", seconds)
                for key, value in (result.context_stats or {}).items():
                    out.add(f"context.{key}", value)
            else:
                out.add("sweep.cycles.cold", cycles)
                stats = result.exec_stats or {}
                for key in ("completed", "retries", "requeues", "workers_lost"):
                    out.add(f"exec.{key}", stats.get(key, 0))
                out.add("exec.busy_s", sum(
                    r["form_time_s"] + r["solve_time_s"] for r in result
                ))
                out.add("exec.capacity_s", jobs * seconds)
    return out


def battery_workload(orders: Sequence[Sequence[Tuple[str, str]]]) -> Outcome:
    """Passes over the scenario catalog at its ``fast`` size.

    Each sample is the time of one pass's runs on that path.  Check: every
    run matches its golden under the golden's tolerances, as
    ``repro scenarios verify`` judges it.
    """
    expected = {}
    for name in sorted({name for order in orders for name, _ in order}):
        golden = load_golden(name, "fast")
        tolerances = dict(get_scenario(name).tolerances)
        tolerances.update(golden.tolerances)
        expected[name] = (golden.measures, tolerances)
    out = Outcome()
    out.notes["golden_mismatches"] = 0
    for order in orders:
        seconds: Dict[str, float] = {}
        for name, backend in order:
            op = out.attempt()
            path = "a" if backend == BACKENDS[0] else "b"
            t0 = time.perf_counter()
            try:
                run = run_scenario(name, size="fast", backend=backend)
            except Exception as exc:  # noqa: BLE001 -- counted, the run goes on
                out.fail(op, f"{name}@{backend}: {type(exc).__name__}: {exc}")
                continue
            seconds[path] = seconds.get(path, 0.0) + time.perf_counter() - t0
            measures, tolerances = expected[name]
            diff = compare_measures(measures, run.measures, tolerances)
            if not diff.ok:
                out.fail(op, f"{name}@{backend}: {diff.describe()}")
                out.add("golden_mismatches", 1)
        for path, total in seconds.items():
            out.samples[path].append(total)
    return out


def warm_up(workload: str, jobs: int) -> None:
    """One untimed request on an input outside every sample.

    It pays the lazy set-up a user pays once per process (kernel tier
    load, first LU factorization, scenario registration), so timed
    requests see steady state.
    """
    if workload.startswith("point-"):
        point_workload(512, [WARMUP_NW])
    elif workload == "ber-curve":
        curve_workload(CURVE_M, [WARMUP_NW, WARMUP_NW + CURVE_STEP], 1, jobs)
    else:
        for name in scenario_names():
            nw = get_scenario(name).params_for("fast")["nw_std"]
            for backend in BACKENDS:
                run_scenario(
                    name, size="fast", backend=backend,
                    params_override={"nw_std": nw * 0.9},
                )


def run_workload(workload: str, seed: int, units: int, jobs: int) -> Outcome:
    """The first ``units`` units of the seed's inputs for ``workload``."""
    if workload == "point-m512":
        return point_workload(512, point_inputs(workload, seed, units))
    if workload == "point-m2048":
        return point_workload(2048, point_inputs(workload, seed, units))
    if workload == "ber-curve":
        return curve_workload(CURVE_M, curve_inputs(seed), units, jobs)
    if workload == "scenarios":
        return battery_workload(battery_orders(seed, units))
    raise ValueError(f"unknown workload {workload!r}")
