"""Tests for the design-margin sensitivity layer."""

import pytest

from repro import CDRSpec
from repro.core import measure_sensitivity, sensitivity_table


def spec():
    return CDRSpec(
        n_phase_points=64,
        n_clock_phases=16,
        counter_length=2,
        max_run_length=2,
        nw_std=0.08,
        nw_atoms=9,
        nr_max=0.016,
        nr_mean=0.004,
    )


class TestMeasureSensitivity:
    def test_ber_increases_with_nw(self):
        rep = measure_sensitivity(spec(), "nw_std", solver="direct")
        assert rep.measure == "ber"
        assert rep.derivative > 0.0
        assert rep.log10_derivative > 0.0
        assert "d log10(ber)" in rep.summary()

    def test_ber_increases_with_drift(self):
        rep = measure_sensitivity(spec(), "nr_mean", solver="direct")
        assert rep.derivative > 0.0

    def test_slip_rate_measure(self):
        # At spec()'s nw_std=0.08 the true slip rate is ~3e-27 (a GTH
        # elimination), far below what an LU solve resolves: the direct
        # solver returns round-off of ~1e-16 whose finite difference has no
        # meaningful sign.  nw_std=0.2 puts it at ~3.5e-10, where LU agrees
        # with GTH to 1e-7 relative and the drift derivative is real.
        rep = measure_sensitivity(
            spec().replace(nw_std=0.2), "nr_mean", measure="slip_rate",
            solver="direct",
        )
        assert rep.base > 1e-12
        assert rep.derivative > 0.0

    def test_log_derivative_magnitude_sane(self):
        # Around this design point BER moves multiple decades per 0.1 UI
        # of extra eye jitter.
        rep = measure_sensitivity(spec(), "nw_std", solver="direct")
        assert 1.0 < rep.log10_derivative < 1000.0

    def test_rejects_discrete_parameter(self):
        with pytest.raises(ValueError, match="continuous"):
            measure_sensitivity(spec(), "counter_length", solver="direct")

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="rel_step"):
            measure_sensitivity(spec(), "nw_std", rel_step=0.0, solver="direct")

    def test_rejects_non_float_measure(self):
        with pytest.raises(ValueError, match="float attribute"):
            measure_sensitivity(spec(), "nw_std", measure="phase_stats",
                                solver="direct")


class TestSensitivityTable:
    def test_default_parameters(self):
        records = sensitivity_table(spec(), solver="direct")
        assert [r["parameter"] for r in records] == ["nw_std", "nr_mean", "nr_max"]
        for rec in records:
            assert "dlog10(ber)/dx" in rec
            assert rec["ber"] >= 0.0

    def test_nw_dominates_at_this_point(self):
        """At a jitter-limited design point the BER is far more sensitive
        (per relative change) to nw_std than to nr_max."""
        records = sensitivity_table(spec(), solver="direct")
        by_param = {r["parameter"]: r for r in records}
        rel_nw = by_param["nw_std"]["dlog10(ber)/dx"] * spec().nw_std
        rel_nr = abs(by_param["nr_max"]["dlog10(ber)/dx"]) * spec().nr_max
        assert rel_nw > rel_nr
