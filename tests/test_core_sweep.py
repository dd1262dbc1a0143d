"""What-if sweep utilities (repro.core.sweep)."""

import pytest

from repro.core import (
    OccupancyStatus,
    demand_sweep,
    headroom_map,
    operating_curve,
    render_headroom_map,
    utilization_where_mshrs_bind,
)
from repro.errors import ConfigurationError
from repro.machines import hbm3_concept


class TestOperatingCurve:
    def test_monotone_in_utilization(self, skl):
        curve = operating_curve(skl)
        n_values = [p.n_avg for p in curve]
        lat_values = [p.latency_ns for p in curve]
        assert n_values == sorted(n_values)
        assert lat_values == sorted(lat_values)

    def test_starts_at_zero(self, skl):
        curve = operating_curve(skl)
        assert curve[0].n_avg == 0.0
        assert curve[0].utilization == 0.0

    def test_top_is_achievable_by_default(self, skl):
        curve = operating_curve(skl)
        assert curve[-1].utilization == pytest.approx(
            skl.memory.achievable_fraction
        )

    def test_point_satisfies_equation2(self, skl):
        from repro.core import mlp_from_bandwidth

        point = operating_curve(skl, points=11)[5]
        n = mlp_from_bandwidth(
            point.bandwidth_gbs * 1e9, point.latency_ns, 64, cores=24
        )
        assert n == pytest.approx(point.n_avg, rel=1e-9)

    def test_validation(self, skl):
        with pytest.raises(ConfigurationError):
            operating_curve(skl, points=1)
        with pytest.raises(ConfigurationError):
            operating_curve(skl, max_utilization=1.5)


class TestMshrCrossing:
    def test_skl_l1_binds_below_achievable(self, skl):
        """10 L1 MSHRs/core fill around 80% utilization on SKL."""
        crossing = utilization_where_mshrs_bind(skl, 1)
        assert crossing is not None
        assert 0.6 < crossing < 0.87

    def test_skl_l2_never_binds(self, skl):
        """16 L2 MSHRs can feed SKL's memory: no crossing below
        achievable bandwidth - today's regime."""
        assert utilization_where_mshrs_bind(skl, 2) is None

    def test_hbm3_l2_binds_early(self):
        """The §IV-G regime: the crossing moves far below achievable."""
        crossing = utilization_where_mshrs_bind(hbm3_concept(), 2)
        assert crossing is not None
        assert crossing < 0.5


class TestDemandSweep:
    def test_bandwidth_monotone_and_saturating(self, knl):
        rows = demand_sweep(knl, 2, [1, 2, 4, 8, 16, 32, 64])
        bws = [bw for _, bw, _ in rows]
        assert bws == sorted(bws)
        # Demand beyond the 32-entry file adds nothing.
        assert bws[-1] == pytest.approx(bws[-2], rel=1e-6)


class TestHeadroomMap:
    def test_covers_all_patterns(self, skl):
        cells = headroom_map(skl)
        patterns = {c.pattern for c in cells}
        assert len(patterns) == 3

    def test_random_full_at_high_utilization(self, skl):
        cells = headroom_map(skl, utilizations=(0.85,))
        random_cell = next(c for c in cells if c.pattern.value == "random")
        assert random_cell.status is OccupancyStatus.FULL

    def test_low_utilization_is_headroom(self, skl):
        cells = headroom_map(skl, utilizations=(0.1,))
        for cell in cells:
            assert cell.status is OccupancyStatus.HEADROOM
            assert not cell.stop

    def test_render(self, skl):
        text = render_headroom_map(headroom_map(skl))
        assert "verdict" in text and "random" in text

    def test_validation(self, skl):
        with pytest.raises(ConfigurationError):
            headroom_map(skl, utilizations=(1.5,))
