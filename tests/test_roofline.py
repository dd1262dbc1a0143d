"""Roofline model + the paper's MSHR ceiling extension (Figure 2)."""

import pytest

from repro.errors import ConfigurationError
from repro.roofline import (
    ExtendedRoofline,
    Roofline,
    RooflinePoint,
    log_intensity_grid,
    mshr_ceiling,
)


def _extended(machine, latency_ns, levels=(1, 2)):
    ceilings = tuple(mshr_ceiling(machine, lvl, latency_ns) for lvl in levels)
    return ExtendedRoofline(Roofline.for_machine(machine), ceilings)


class TestClassicRoofline:
    def test_memory_bound_region(self, knl):
        roof = Roofline.for_machine(knl)
        assert roof.attainable_gflops(1.0) == pytest.approx(400.0)

    def test_compute_bound_region(self, knl):
        roof = Roofline.for_machine(knl)
        assert roof.attainable_gflops(100.0) == pytest.approx(knl.peak_gflops)

    def test_headroom(self, knl):
        roof = Roofline.for_machine(knl)
        point = RooflinePoint("app", 1.0, 100.0)
        assert roof.headroom(point) == pytest.approx(4.0)

    def test_series(self, knl):
        roof = Roofline.for_machine(knl)
        series = roof.series([0.1, 1.0, 10.0])
        assert len(series) == 3
        assert series[0][1] < series[1][1]

    def test_rejects_nonpositive_intensity(self, knl):
        with pytest.raises(ConfigurationError):
            Roofline.for_machine(knl).attainable_gflops(0.0)

    def test_log_grid(self):
        grid = log_intensity_grid(0.01, 100.0, 5)
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(100.0)
        with pytest.raises(ConfigurationError):
            log_intensity_grid(0.0, 1.0)


class TestMshrCeiling:
    def test_knl_l1_ceiling_is_256gbs(self, knl):
        """Paper Figure 2: the dotted line at 256 GB/s."""
        ceiling = mshr_ceiling(knl, 1, 192.0)
        assert ceiling.bandwidth_gbs == pytest.approx(256.0, rel=0.01)
        assert ceiling.mshrs_per_core == 12

    def test_l2_ceiling_above_l1(self, knl):
        l1 = mshr_ceiling(knl, 1, 190.0)
        l2 = mshr_ceiling(knl, 2, 190.0)
        assert l2.bandwidth_gbs > l1.bandwidth_gbs

    def test_label_mentions_level(self, knl):
        assert "L1" in mshr_ceiling(knl, 1, 190.0).label


class TestExtendedRoofline:
    def test_ceiling_tightens_bound(self, knl):
        ext = _extended(knl, 190.0, levels=(1,))
        classic = ext.roofline.attainable_gflops(1.0)
        bounded = ext.attainable_gflops(1.0)
        assert bounded < classic

    def test_explains_stall_for_isx_base(self, knl):
        """Point O: far under the classic roof, on the L1 ceiling."""
        ext = _extended(knl, 190.0, levels=(1,))
        ceiling_bw = ext.ceilings[0].bandwidth_gbs
        point = RooflinePoint("isx", 0.03, 0.95 * ceiling_bw * 0.03)
        assert ext.explains_stall(point)

    def test_no_stall_explanation_when_far_below_ceiling(self, knl):
        ext = _extended(knl, 190.0, levels=(1,))
        point = RooflinePoint("comd", 0.03, 0.1)
        assert ext.binding_ceiling(point) is None

    def test_series_includes_both_bounds(self, knl):
        ext = _extended(knl, 190.0)
        series = ext.series([0.1, 1.0])
        for _, classic, extended in series:
            assert extended <= classic
