"""Tests for run manifests (repro.obs.manifest)."""

import json

import numpy as np
import pytest

from repro import CDRSpec, analyze_cdr, obs
from repro.bench.suite import environment_fingerprint
from repro.obs import (
    RUN_TRACE_SCHEMA,
    Tracer,
    build_run_manifest,
    digest_array,
    format_run_manifest,
    load_run_manifest,
    peak_rss_bytes,
    use_tracer,
    write_run_manifest,
)
from repro.obs.metrics import MetricsRegistry


def fast_spec():
    return CDRSpec(
        n_phase_points=64, n_clock_phases=16, counter_length=2,
        max_run_length=2, nw_std=0.08, nw_atoms=7,
    )


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    with use_tracer(tracer):
        analysis = analyze_cdr(fast_spec(), solver="direct")
    return tracer, analysis


class TestHelpers:
    def test_peak_rss_positive(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 1_000_000

    def test_digest_array_stable_and_sensitive(self):
        a = np.arange(6, dtype=float)
        assert digest_array(a) == digest_array(a.copy())
        assert digest_array(a) != digest_array(a.reshape(2, 3))
        assert digest_array(a) != digest_array(a + 1)

    def test_fingerprint_stability(self):
        # Two fingerprints of one environment must be identical: an e2e
        # comparison relies on it to tell machine changes from regressions.
        fp = environment_fingerprint()
        assert fp == environment_fingerprint()
        assert set(fp) == {
            "python", "python_implementation", "numpy", "scipy", "repro",
            "system", "machine", "cpu_count", "kernels",
        }
        # One source for environment data: the manifest reports the same.
        m = build_run_manifest(registry=MetricsRegistry())
        for key, value in {**m["versions"], **m["platform"]}.items():
            assert fp[key] == value


class TestBuildRunManifest:
    def test_acceptance_full_manifest(self, traced_run):
        """The PR's acceptance shape: nested spans for build / solve /
        measures, embedded solver-monitor events, and a
        Prometheus-renderable metrics snapshot."""
        tracer, analysis = traced_run
        m = build_run_manifest(
            kind="analysis", spec=analysis.spec, analysis=analysis,
            tracer=tracer,
        )
        assert m["schema"] == RUN_TRACE_SCHEMA

        # nested spans: cdr.analyze > {cdr.build_tpm, markov.solve, cdr.measures}
        roots = {s["name"]: s for s in m["spans"]}
        assert "cdr.analyze" in roots
        children = {c["name"] for c in roots["cdr.analyze"]["children"]}
        assert {"cdr.build_tpm", "markov.solve", "cdr.measures"} <= children
        assert m["stages"]["cdr.build_tpm"] > 0.0
        assert m["stages"]["markov.solve"] > 0.0

        # embedded solver trace with per-iteration events
        trace = m["solver_trace"]
        assert trace["schema"] == "repro.solver-trace/1"
        assert trace["iterations"] == len(trace["events"]) >= 1
        assert trace["method"] == analysis.solver_result.method

        # metrics snapshot in both forms
        assert "repro_analyses_total" in m["metrics"]["snapshot"]
        assert "# TYPE repro_analyses_total counter" in m["metrics"]["prometheus"]

        # environment + digests
        assert m["versions"]["repro"]
        assert m["spec"]["counter_length"] == 2
        assert len(m["digests"]["stationary_sha256"]) == 64
        assert m["results"]["ber"] == analysis.ber

    def test_minimal_manifest(self):
        m = build_run_manifest(kind="benchmark", registry=MetricsRegistry())
        assert m["schema"] == RUN_TRACE_SCHEMA
        assert m["spans"] == []
        assert m["results"] == {}
        assert m["spec"] is None

    def test_results_merge_over_analysis(self, traced_run):
        tracer, analysis = traced_run
        m = build_run_manifest(
            analysis=analysis, tracer=tracer, results={"ber": 42.0, "extra": 1},
        )
        assert m["results"]["ber"] == 42.0
        assert m["results"]["extra"] == 1

    def test_json_serializable(self, traced_run):
        tracer, analysis = traced_run
        m = build_run_manifest(analysis=analysis, tracer=tracer)
        json.dumps(m)


class TestWriteLoadFormat:
    def test_roundtrip(self, tmp_path, traced_run):
        tracer, analysis = traced_run
        m = build_run_manifest(
            kind="analysis", spec=analysis.spec, analysis=analysis,
            tracer=tracer,
        )
        path = tmp_path / "run.json"
        write_run_manifest(str(path), m)
        loaded = load_run_manifest(str(path))
        assert loaded["schema"] == RUN_TRACE_SCHEMA
        assert loaded["digests"] == m["digests"]

    def test_write_rejects_non_manifest(self, tmp_path):
        with pytest.raises(ValueError):
            write_run_manifest(str(tmp_path / "x.json"), {"schema": "bogus"})

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ValueError):
            load_run_manifest(str(path))

    def test_format_renders_sections(self, traced_run):
        tracer, analysis = traced_run
        m = build_run_manifest(
            kind="analysis", spec=analysis.spec, analysis=analysis,
            tracer=tracer,
        )
        text = format_run_manifest(m)
        assert RUN_TRACE_SCHEMA in text
        assert "spans:" in text
        assert "cdr.build_tpm" in text
        assert "markov.solve" in text
        assert "solver trace:" in text
        assert "metrics (" in text
        assert "stationary_sha256=" in text

    def test_multigrid_contraction_and_recombinations(self):
        spec = CDRSpec(
            n_phase_points=128, n_clock_phases=16, counter_length=8,
            max_run_length=2, nw_std=0.05, nw_atoms=9,
        )
        with obs.profiled(metrics=False):
            analysis = analyze_cdr(spec, solver="multigrid", tol=1e-10)
            m = build_run_manifest(analysis=analysis)
        result = analysis.solver_result
        assert m["results"]["solver_convergence_rate"] == result.convergence_rate()
        assert m["results"]["solver_recombinations"] == result.recombinations > 0
        json.dumps(m)
        text = format_run_manifest(m)
        hot = text.index("hot path (operator attribution):")
        line = (
            f"multigrid: {result.iterations} cycles, contraction "
            f"{result.convergence_rate():.3g}/cycle, "
            f"{result.recombinations} recombinations accepted"
        )
        assert text.index(line) > hot

    def test_multigrid_line_lists_levels(self):
        # (d, c, m) = (2, 15, 128) pairs to (1, 8, 64): 3,840 -> 512
        # states, and 512 is the coarsest size.
        spec = CDRSpec(
            n_phase_points=128, n_clock_phases=16, counter_length=8,
            max_run_length=2, nw_std=0.05, nw_atoms=9,
        )
        analysis = analyze_cdr(spec, solver="multigrid", tol=1e-10)
        m = build_run_manifest(analysis=analysis)
        events = m["solver_trace"]["vcycle_events"]
        assert {e["level"] for e in events if e["cycle"] == 1} == {0, 1}
        text = format_run_manifest(m)
        assert "recombinations accepted, levels 3840→512\n" in text
        solve_s = m["stages"]["markov.solve"]
        assert f" of markov.solve {solve_s:.4f} s\n" in text

    def test_stage_line_shares_are_of_the_solve_span(self):
        event = dict(nnz=0, n_blocks=0, pre_smooth_time=0.0,
                     post_smooth_time=0.0, coarse_build_time=0.0,
                     coarsest_solve_time=0.0)
        trace = {"vcycle_events": [
            dict(event, cycle=1, level=0, n_states=4096, n_blocks=512,
                 pre_smooth_time=0.25, post_smooth_time=0.125,
                 coarse_build_time=0.5),
            dict(event, cycle=1, level=1, n_states=512,
                 coarsest_solve_time=0.25),
            dict(event, cycle=2, level=0, n_states=4096, n_blocks=512,
                 pre_smooth_time=0.125),
        ]}
        m = {"schema": RUN_TRACE_SCHEMA, "kind": "analysis",
             "stages": {"cdr.build_tpm": 8.0, "markov.solve": 2.0},
             "results": {"solver_method": "multigrid", "solver_iterations": 2},
             "solver_trace": dict(trace, method="multigrid", iterations=2,
                                  residual=1e-11)}
        lines = format_run_manifest(m).splitlines()
        assert (
            "multigrid stages: smoothing 0.5000 s (25.0%), coarse build "
            "0.5000 s (25.0%), coarsest solve 0.2500 s (12.5%) of "
            "markov.solve 2.0000 s"
        ) in lines

    def test_levels_read_from_the_first_cycle(self):
        event = dict(nnz=0, n_blocks=0, pre_smooth_time=0.0,
                     post_smooth_time=0.0)
        trace = {"vcycle_events": [
            dict(event, cycle=1, level=1, n_states=2048),
            dict(event, cycle=1, level=0, n_states=61440),
            dict(event, cycle=1, level=2, n_states=512),
            dict(event, cycle=2, level=0, n_states=61440),
            dict(event, cycle=2, level=3, n_states=7),
        ]}
        m = {"schema": RUN_TRACE_SCHEMA, "kind": "analysis",
             "results": {"solver_method": "multigrid", "solver_iterations": 2},
             "solver_trace": dict(trace, method="multigrid", iterations=2,
                                  residual=1e-11)}
        lines = format_run_manifest(m).splitlines()
        assert (
            "multigrid: 2 cycles, 0 recombinations accepted, "
            "levels 61440→2048→512"
        ) in lines

    def test_direct_solve_has_no_multigrid_line(self, traced_run):
        tracer, analysis = traced_run
        m = build_run_manifest(analysis=analysis, tracer=tracer)
        assert m["results"]["solver_recombinations"] == 0
        assert m["results"]["solver_convergence_rate"] is None
        assert "recombinations accepted" not in format_run_manifest(m)

    def test_public_api_reexported(self):
        for name in ("Tracer", "span", "use_tracer", "get_registry",
                     "build_run_manifest", "RUN_TRACE_SCHEMA"):
            assert hasattr(obs, name)


class TestFailuresByCause:
    """Executor stats and failure grouping in the pretty-printed manifest."""

    def _manifest(self, results):
        return build_run_manifest(
            kind="sweep", registry=MetricsRegistry(), results=results
        )

    def test_exec_stats_rendered(self):
        m = self._manifest({
            "exec_stats": {
                "jobs": 4, "mode": "pool", "completed": 10, "failed": 0,
                "retries": 2, "timeouts": 1, "workers_lost": 1,
                "respawns": 1, "warm_starts": 6,
            },
        })
        text = format_run_manifest(m)
        assert "executor: jobs=4  mode=pool" in text
        assert "retries=2" in text and "workers_lost=1" in text
        assert "warm_starts=6" in text

    def test_failures_grouped_by_taxonomy_and_type(self):
        m = self._manifest({
            "failed_points": [
                {"index": 3, "error_type": "PointTimeout",
                 "taxonomy": "PointTimeout", "message": "point 3 timed out"},
                {"index": 7, "error_type": "PointTimeout",
                 "taxonomy": "PointTimeout", "message": "point 7 timed out"},
                {"index": 9, "error_type": "ValueError",
                 "taxonomy": "external", "message": "bad spec"},
            ],
        })
        text = format_run_manifest(m)
        assert "failures by cause (3 point(s)):" in text
        assert "PointTimeout: 2 point(s) [3, 7]" in text
        assert "ValueError: 1 point(s) [9]" in text
        assert "e.g. point 3 timed out" in text

    def test_failed_seeds_also_grouped(self):
        m = self._manifest({
            "failed_seeds": [
                {"index": 0, "seed": 11, "error_type": "RuntimeError",
                 "taxonomy": "external", "message": "sim blew up"},
            ],
        })
        assert "failures by cause (1 point(s)):" in format_run_manifest(m)

    def test_no_failures_no_section(self):
        text = format_run_manifest(self._manifest({"records": []}))
        assert "failures by cause" not in text
        assert "executor:" not in text
