"""Elastic drivers: serial parity, ledger interop, crash-resume identity.

The headline robustness acceptance lives here: a sweep whose executor is
SIGKILLed after K of N points and then resumed -- even with a different
worker count -- produces a SweepResult identical (excluding volatile
wall-clock timing fields) to an uninterrupted run, with the same
warm-start accounting.  Timing fields are the only tolerated difference:
they measure the machine, not the model.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cdr.sweep import sweep_parameter
from repro.core.spec import CDRSpec
from repro.exec import ExecConfig
from repro.markov import SolveContext

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Volatile per-record fields excluded from bit-identity comparisons.
TIMING_FIELDS = {"form_time_s", "solve_time_s", "sim_time"}

VALUES = [0.35, 0.4, 0.45, 0.5, 0.55, 0.6]


def fast_spec():
    return CDRSpec(
        n_phase_points=32, n_clock_phases=16, counter_length=2,
        max_run_length=2, nw_atoms=5,
    )


def projection(record):
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def projections(result):
    return [projection(r) for r in result]


class TestSerialParity:
    def test_parallel_records_match_serial(self):
        serial = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power"
        )
        parallel = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power", jobs=2
        )
        assert projections(parallel) == projections(serial)
        assert serial.exec_stats is None
        assert parallel.exec_stats["jobs"] == 2
        assert parallel.exec_stats["completed"] == len(VALUES)

    def test_jobs_with_solve_context_rejected(self):
        with pytest.raises(ValueError, match="solve_context"):
            sweep_parameter(
                fast_spec(), "transition_density", VALUES[:2],
                solver="power", jobs=2, solve_context=SolveContext(),
            )

    def test_warm_sweep_counts_lineage_warm_starts(self):
        result = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            jobs=2, warm_start=True,
        )
        # 6 points in min(jobs, n) = 2 chains: 2 heads, 4 warm starts
        assert result.exec_stats["warm_starts"] == 4
        assert sum(r["warm_started"] for r in result) == 4

    def test_deterministic_point_failure_carries_taxonomy(self):
        # transition_density > 1 is an invalid spec -> per-point failure
        result = sweep_parameter(
            fast_spec(), "transition_density", [0.4, 7.0, 0.6],
            solver="power", jobs=2,
        )
        assert len(result) == 2
        [entry] = result.failed_points
        assert entry["index"] == 1
        assert entry["error_type"] and entry["taxonomy"]
        assert entry["value"] == 7.0


class TestLedgerInterop:
    def test_serial_ledger_resumes_in_parallel(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        serial = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            checkpoint_path=path,
        )
        parallel = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            jobs=2, checkpoint_path=path, resume=True,
        )
        assert parallel.resumed_points == len(VALUES)
        # replayed records are the ledger's bytes: identical timing too
        assert list(parallel) == list(serial)

    def test_parallel_ledger_resumes_serially(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        parallel = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            jobs=2, checkpoint_path=path,
        )
        serial = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            checkpoint_path=path, resume=True,
        )
        assert serial.resumed_points == len(VALUES)
        assert list(serial) == list(parallel)


class TestCrashResume:
    def _run_until_killed(self, tmp_path, min_points=2):
        """Launch a warm parallel sweep, SIGKILL it after K points.

        The sweep's analyzer stalls for a minute before the last point of
        each warm lineage (2 lineages of 3 points), so the sweep cannot
        finish between two ledger polls: the kill always lands mid-sweep.
        It lives in a module on ``sys.path`` so the workers can import it.
        """
        ledger = tmp_path / "ledger.json"
        (tmp_path / "stalling_analyzer.py").write_text(textwrap.dedent(f"""
            import time
            from repro.core.analyzer import analyze_cdr

            LATE = {[VALUES[2], VALUES[5]]!r}

            def analyze(spec, **kwargs):
                if spec.transition_density in LATE:
                    time.sleep(60)
                return analyze_cdr(spec, **kwargs)
        """))
        script = tmp_path / "run_sweep.py"
        script.write_text(textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {os.path.abspath(SRC)!r})
            sys.path.insert(0, {str(tmp_path)!r})
            from repro.cdr.sweep import sweep_parameter
            from repro.core.spec import CDRSpec
            from stalling_analyzer import analyze
            spec = CDRSpec(
                n_phase_points=32, n_clock_phases=16, counter_length=2,
                max_run_length=2, nw_atoms=5,
            )
            sweep_parameter(
                spec, "transition_density", {VALUES!r}, solver="power",
                jobs=2, warm_start=True, checkpoint_path={str(ledger)!r},
                analyze_fn=analyze,
            )
        """))
        proc = subprocess.Popen(
            [sys.executable, str(script)], start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail(
                        "sweep subprocess finished before it could be killed"
                    )
                completed = {}
                try:
                    with open(ledger, "r", encoding="utf-8") as fh:
                        data = json.load(fh)
                    completed = data.get("payload", {}).get("completed", {})
                except (FileNotFoundError, json.JSONDecodeError):
                    pass  # ledger not yet written / mid atomic replace
                if len(completed) >= min_points:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("ledger never reached the kill threshold")
        finally:
            # SIGKILL the whole process group: executor and workers alike
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        return str(ledger), len(completed)

    def test_killed_then_resumed_is_bit_identical(self, tmp_path):
        ledger, completed_at_kill = self._run_until_killed(tmp_path)
        assert 0 < completed_at_kill < len(VALUES)

        # resume with a DIFFERENT worker count: the warm-lineage layout
        # is pinned in the ledger's job fingerprint, not derived from jobs
        resumed = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            jobs=3, warm_start=True, checkpoint_path=ledger, resume=True,
        )
        reference = sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            jobs=2, warm_start=True,
            checkpoint_path=str(tmp_path / "reference.json"),
        )
        assert resumed.resumed_points == completed_at_kill
        assert projections(resumed) == projections(reference)
        assert [r["warm_started"] for r in resumed] == [
            r["warm_started"] for r in reference
        ]
        assert (
            resumed.exec_stats["warm_starts"]
            == reference.exec_stats["warm_starts"]
        )

    def test_resumed_ledger_digests_verify(self, tmp_path):
        from repro.resilience import PointCheckpointer

        ledger, _ = self._run_until_killed(tmp_path)
        sweep_parameter(
            fast_spec(), "transition_density", VALUES, solver="power",
            jobs=2, warm_start=True, checkpoint_path=ledger, resume=True,
        )
        # a fresh resume re-verifies the ledger's integrity digest on load
        job = PointCheckpointer.peek_job(ledger)
        assert job["kind"] == "sweep" and "warm_lineages" in job
        checkpointer = PointCheckpointer(ledger, job)
        assert checkpointer.resume()
        assert len(checkpointer.completed) == len(VALUES)


class TestElasticCampaign:
    @staticmethod
    def _campaign(jobs=None):
        from repro.cdr import PhaseGrid, transition_run_length_source
        from repro.cdr.montecarlo import simulate_cdr_campaign
        from repro.noise import eye_opening_noise, sonet_drift_noise

        grid = PhaseGrid(32)
        return simulate_cdr_campaign(
            grid,
            eye_opening_noise(0.18, n_atoms=9),
            sonet_drift_noise(
                max_ui=grid.step, mean_ui=0.3 * grid.step,
                grid_step=grid.step,
            ),
            counter_length=2,
            phase_step_units=1,
            data_source=transition_run_length_source("data", 0.5, 3),
            n_symbols=400,
            seeds=[11, 12, 13, 14],
            jobs=jobs,
        )

    def test_parallel_campaign_matches_serial(self):
        serial = self._campaign()
        parallel = self._campaign(jobs=2)
        assert [projection(r) for r in parallel.records] == [
            projection(r) for r in serial.records
        ]
        assert serial.exec_stats is None
        assert parallel.exec_stats["completed"] == 4
