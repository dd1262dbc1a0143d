"""MlpCalculator: bandwidth + profile -> the paper's n_avg."""

import numpy as np
import pytest

from repro.core import MlpCalculator
from repro.errors import ConfigurationError
from repro.machines import get_machine, machine_names


class TestCalculation:
    def test_isx_skl_base_row(self, skl):
        """Table IV row 1 falls out of the calculator end to end."""
        result = MlpCalculator(skl).calculate_gbs(106.9)
        assert result.latency_ns == pytest.approx(145, abs=5)
        assert result.n_avg == pytest.approx(10.1, rel=0.05)
        assert result.utilization == pytest.approx(0.835, abs=0.01)

    def test_n_total_is_per_core_times_cores(self, skl):
        result = MlpCalculator(skl).calculate_gbs(50.0)
        assert result.n_total == pytest.approx(result.n_avg * 24)

    def test_a64fx_large_lines(self, a64fx):
        result = MlpCalculator(a64fx).calculate_gbs(649.0)
        assert result.line_bytes == 256
        assert result.n_avg == pytest.approx(9.92, rel=0.05)

    def test_zero_bandwidth(self, skl):
        result = MlpCalculator(skl).calculate(0.0)
        assert result.n_avg == 0.0
        assert result.latency_ns == pytest.approx(80.0)

    def test_summary_format(self, skl):
        text = MlpCalculator(skl).calculate_gbs(106.9).summary()
        assert "GB/s" in text and "n_avg" in text


class TestDefaultProfile:
    @pytest.mark.parametrize("name", machine_names())
    def test_reads_the_calibrated_curve_exactly(self, name):
        """The default Eq. 2 lookup is the curve the simulator and the
        solver read, bit for bit, not a resampled copy of it."""
        machine = get_machine(name)
        curve = machine.latency_model
        calc = MlpCalculator(machine)
        assert calc.profile is curve
        peak = machine.memory.peak_bw_bytes
        # Both sides of every breakpoint, and skl's knee at u = 0.86.
        utils = [u for u, _ in curve.points] + [0.86, *np.linspace(0, 1.05, 211)]
        for bw in sorted({u * peak for u in utils} | {110e9}):
            got = calc.calculate(bw).latency_ns
            assert got.hex() == curve.latency_at(bw).hex()

    def test_skl_knee_reads_the_curve(self, skl):
        # At 110 GB/s (u = 0.86) a 64-point resample read 168 ns.
        result = MlpCalculator(skl).calculate_gbs(110.0)
        assert result.latency_ns == pytest.approx(170.0, abs=0.5)
        assert result.n_avg == pytest.approx(12.19, abs=0.01)


class TestMeasuredProfile:
    def test_works_with_xmem_profile(self, skl, xmem_skl_profile):
        calc = MlpCalculator(skl, xmem_skl_profile)
        result = calc.calculate_gbs(90.0)
        assert result.n_avg > 0

    def test_profile_machine_mismatch_rejected(self, knl, xmem_skl_profile):
        with pytest.raises(ConfigurationError):
            MlpCalculator(knl, xmem_skl_profile)


class TestCoreOverride:
    def test_custom_core_count(self, skl):
        half = MlpCalculator(skl, cores=12).calculate_gbs(50.0)
        full = MlpCalculator(skl).calculate_gbs(50.0)
        assert half.n_avg == pytest.approx(2 * full.n_avg)

    def test_rejects_bad_core_count(self, skl):
        with pytest.raises(ConfigurationError):
            MlpCalculator(skl, cores=0)
        with pytest.raises(ConfigurationError):
            MlpCalculator(skl, cores=100)

    def test_rejects_negative_bandwidth(self, skl):
        with pytest.raises(ConfigurationError):
            MlpCalculator(skl).calculate(-5.0)
