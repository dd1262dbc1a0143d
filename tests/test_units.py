"""Unit conversions: the arithmetic everything else leans on."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1e-12, max_value=1e12
)


class TestBandwidth:
    def test_gb_per_s_roundtrip(self):
        assert units.to_gb_per_s(units.gb_per_s(128.0)) == pytest.approx(128.0)

    def test_gb_per_s_is_decimal(self):
        assert units.gb_per_s(1.0) == 1e9


class TestLatency:
    def test_ns_roundtrip(self):
        assert units.ns(145.0) / units.NANO == pytest.approx(145.0)

    def test_paper_latency_cycle_conversion(self):
        # "180ns or 378 cycles" at SKL's 2.1 GHz (paper Section I).
        assert units.ns_to_cycles(180, 2.1) == pytest.approx(378)


class TestUtilization:
    def test_basic_fraction(self):
        assert units.utilization(64.0, 128.0) == pytest.approx(0.5)

    def test_rejects_nonpositive_peak(self):
        with pytest.raises(ValueError):
            units.utilization(1.0, 0.0)

    def test_rejects_negative_observed(self):
        with pytest.raises(ValueError):
            units.utilization(-1.0, 10.0)

    def test_percent(self):
        assert units.percent(0.84) == pytest.approx(84.0)


class TestFrequency:
    def test_ghz_roundtrip(self):
        assert units.to_ghz(units.ghz(2.1)) == pytest.approx(2.1)


class TestReportScaling:
    def test_ns_to_us(self):
        assert units.ns_to_us(1500.0) == pytest.approx(1.5)


class TestConstants:
    def test_si_ladder(self):
        assert units.GIGA == 1e9
        assert units.MEGA == 1e6
        assert units.KILO == 1e3
        assert units.NANO == 1e-9
        assert units.GIGA * units.NANO == pytest.approx(1.0)


class TestRoundTripsExhaustive:
    """Property round-trips over the physically plausible range."""

    @given(finite_floats)
    def test_bandwidth_roundtrip(self, value):
        assert units.to_gb_per_s(units.gb_per_s(value)) == pytest.approx(
            value, rel=1e-12
        )

    @given(finite_floats)
    def test_frequency_roundtrip(self, value):
        assert units.to_ghz(units.ghz(value)) == pytest.approx(value, rel=1e-12)

    def test_paper_quoted_pairs_exact(self):
        # Latency/cycle pairs the paper quotes (Section I, Table IV).
        assert round(units.ns_to_cycles(180, 2.1)) == 378


class TestEdgeInputs:
    """NaN propagates; negative magnitudes scale but never crash."""

    def test_nan_propagates(self):
        for fn in (
            units.gb_per_s,
            units.to_gb_per_s,
            units.ns,
            units.ghz,
            units.to_ghz,
            units.ns_to_us,
        ):
            assert math.isnan(fn(float("nan")))

    def test_nan_utilization_propagates(self):
        # NaN fails neither bound check (all comparisons are False).
        assert math.isnan(units.utilization(float("nan"), 10.0))

    def test_negative_values_scale_linearly(self):
        # Conversions are pure scalings: sign passes straight through
        # (validation is the caller's job, e.g. littles_law raises).
        assert units.gb_per_s(-2.0) == -2e9
        assert units.ns(-5.0) == -5e-9
        assert units.ns_to_us(-1500.0) == pytest.approx(-1.5)

    def test_zero_is_exact(self):
        assert units.gb_per_s(0.0) == 0.0

    def test_infinity_scales_to_infinity(self):
        assert units.to_gb_per_s(float("inf")) == float("inf")
        assert math.isinf(units.ghz(float("inf")))
