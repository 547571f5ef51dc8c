"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = [
    "--n-phase-points", "64",
    "--n-clock-phases", "16",
    "--counter-length", "2",
    "--max-run-length", "2",
    "--nw-std", "0.08",
    "--nw-atoms", "7",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.command == "analyze"
        assert args.counter_length == 8
        assert args.solver == "auto"

    def test_spec_overrides(self):
        args = build_parser().parse_args(["analyze", "--counter-length", "4"])
        assert args.counter_length == 4


class TestAnalyzeCommand:
    def test_runs_and_reports(self, capsys):
        rc = main(["analyze", *FAST, "--solver", "direct"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "COUNTER: 2" in out
        assert "BER (Gaussian tail)" in out
        assert "mean symbols between slips" in out

    def test_plot_flag(self, capsys):
        rc = main(["analyze", *FAST, "--solver", "direct", "--plot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase error PDF" in out
        assert "#" in out

    def test_invalid_spec_reports_error(self, capsys):
        rc = main(["analyze", "--counter-length", "0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err

    def test_unknown_backend_reports_error(self, capsys):
        rc = main(["analyze", *FAST, "--backend", "bogus"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "unknown backend" in err

    def test_capability_error_reports_cleanly(self, capsys, monkeypatch):
        # A csr-only solver on an operator that cannot materialize must
        # exit 1 with an `error:` line, not a traceback.
        from repro.cdr.operator import CDRTransitionOperator
        from repro.markov import OperatorCapabilityError

        def boom(self):
            raise OperatorCapabilityError("cannot materialize; matrix-free")

        monkeypatch.setattr(CDRTransitionOperator, "to_csr", boom)
        rc = main(["analyze", *FAST, "--backend", "matrix-free",
                   "--solver", "direct"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: cannot materialize" in err

    def test_backend_flag_matrix_free(self, capsys):
        rc = main(["analyze", *FAST, "--backend", "matrix-free",
                   "--solver", "multigrid"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BER (Gaussian tail)" in out

    def test_solvers_listing(self, capsys):
        rc = main(["solvers"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "multigrid" in out and "matrix-free" in out
        backends = out.split("TPM backends")[1].split()
        assert "assembled" in backends and "kronecker" not in backends

    def test_trace_flag_writes_valid_json(self, capsys, tmp_path):
        from repro.markov.monitor import TRACE_SCHEMA, load_trace

        path = tmp_path / "trace.json"
        rc = main(["analyze", *FAST, "--solver", "gauss-seidel",
                   "--trace", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"solver trace written to {path}" in captured.err
        trace = load_trace(str(path))
        assert trace["schema"] == TRACE_SCHEMA
        assert trace["method"] == "gauss-seidel"
        assert trace["converged"] is True
        assert trace["iterations"] == len(trace["events"]) > 1
        assert trace["events"][-1]["residual"] == trace["residual"]

    def test_trace_with_multigrid_has_level_events(self, tmp_path):
        path = tmp_path / "mg.json"
        rc = main(["analyze", *FAST, "--solver", "multigrid",
                   "--trace", str(path)])
        assert rc == 0
        from repro.markov.monitor import load_trace

        trace = load_trace(str(path))
        assert trace["method"].startswith("multigrid")
        assert len(trace["vcycle_events"]) >= 1


class TestSweepCommand:
    def test_counter_sweep(self, capsys):
        rc = main([
            "sweep", *FAST, "--solver", "direct",
            "--parameter", "counter_length", "--values", "1,2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "counter_length" in out
        assert "ber" in out
        assert len(out.strip().splitlines()) >= 4

    def test_bad_values(self, capsys):
        rc = main([
            "sweep", *FAST, "--parameter", "counter_length",
            "--values", "1,abc",
        ])
        assert rc == 2
        assert "bad --values" in capsys.readouterr().err

    def test_empty_values(self, capsys):
        rc = main([
            "sweep", *FAST, "--parameter", "counter_length", "--values", ",",
        ])
        assert rc == 2

    def test_unknown_parameter_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--parameter", "bogus", "--values", "1"]
            )


class TestAcquireCommand:
    def test_runs(self, capsys):
        rc = main(["acquire", *FAST])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worst-case" in out

    def test_curve(self, capsys):
        rc = main(["acquire", *FAST, "--curve-symbols", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P(locked at symbol" in out


class TestMetricsFlag:
    def test_analyze_writes_valid_manifest(self, capsys, tmp_path):
        from repro.obs import RUN_TRACE_SCHEMA, load_run_manifest

        path = tmp_path / "run.json"
        rc = main(["analyze", *FAST, "--solver", "direct",
                   "--metrics", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"run manifest written to {path}" in captured.err
        m = load_run_manifest(str(path))
        assert m["schema"] == RUN_TRACE_SCHEMA
        assert m["kind"] == "analysis"
        roots = {s["name"] for s in m["spans"]}
        assert "cdr.analyze" in roots
        assert m["solver_trace"]["method"] == "direct"
        assert "repro_analyses_total" in m["metrics"]["snapshot"]

    def test_sweep_writes_manifest(self, tmp_path):
        from repro.obs import load_run_manifest

        path = tmp_path / "sweep.json"
        rc = main(["sweep", *FAST, "--solver", "direct",
                   "--parameter", "counter_length", "--values", "1,2",
                   "--metrics", str(path)])
        assert rc == 0
        m = load_run_manifest(str(path))
        assert m["kind"] == "sweep"
        assert len(m["results"]["records"]) == 2
        assert any(s["name"] == "cdr.sweep" for s in m["spans"])

    def test_acquire_writes_manifest(self, tmp_path):
        from repro.obs import load_run_manifest

        path = tmp_path / "acq.json"
        rc = main(["acquire", *FAST, "--metrics", str(path)])
        assert rc == 0
        m = load_run_manifest(str(path))
        assert m["kind"] == "acquire"
        assert m["results"]["worst_case_symbols"] > 0


class TestStatsCommand:
    def test_pretty_prints_manifest(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["analyze", *FAST, "--solver", "direct",
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        rc = main(["stats", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro.run-trace/1" in out
        assert "cdr.build_tpm" in out
        assert "markov.solve" in out
        assert "metrics (" in out

    def test_prometheus_dump(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["analyze", *FAST, "--solver", "direct",
                     "--metrics", str(path)]) == 0
        capsys.readouterr()
        rc = main(["stats", str(path), "--prometheus"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# TYPE repro_analyses_total counter" in out

    def test_missing_file_exits_1(self, capsys, tmp_path):
        rc = main(["stats", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_schema_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "not-a-run-trace"}')
        rc = main(["stats", str(path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestElasticSweepFlags:
    """--jobs/--point-timeout/--max-retries and faults --suite plumbing."""

    def test_jobs_flag_parses_with_defaults(self):
        args = build_parser().parse_args([
            "sweep", "--parameter", "counter_length", "--values", "1,2",
        ])
        assert args.jobs is None
        assert args.point_timeout is None
        assert args.max_retries == 2

    def test_parallel_sweep_runs_and_reports_executor(self, capsys, tmp_path):
        from repro.obs import load_run_manifest

        path = tmp_path / "sweep.json"
        rc = main(["sweep", *FAST, "--solver", "direct",
                   "--parameter", "counter_length", "--values", "1,2",
                   "--jobs", "2", "--metrics", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "2 jobs (pool)" in captured.err
        m = load_run_manifest(str(path))
        stats = m["results"]["exec_stats"]
        assert stats["jobs"] == 2
        assert stats["completed"] == 2

    def test_jobs_must_be_positive(self, capsys):
        rc = main(["sweep", *FAST, "--parameter", "counter_length",
                   "--values", "1,2", "--jobs", "0"])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_point_timeout_requires_jobs(self, capsys):
        rc = main(["sweep", *FAST, "--parameter", "counter_length",
                   "--values", "1,2", "--point-timeout", "5"])
        assert rc == 2
        assert "--point-timeout" in capsys.readouterr().err

    def test_faults_suite_flag(self):
        args = build_parser().parse_args(["faults", "--suite", "workers"])
        assert args.suite == "workers"
        assert build_parser().parse_args(["faults"]).suite == "core"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--suite", "bogus"])
