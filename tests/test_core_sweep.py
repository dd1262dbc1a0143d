"""The recipe-verdict map (repro.core.sweep) and the Equation-2 locus it reads."""

import pytest

from repro.core import (
    MlpCalculator,
    OccupancyStatus,
    headroom_map,
    mlp_from_bandwidth,
    render_headroom_map,
)
from repro.errors import ConfigurationError
from repro.machines import hbm3_concept
from repro.perfmodel.solver import solve_operating_point


def _n_avg(machine, utilization):
    return MlpCalculator(machine).calculate(
        utilization * machine.memory.peak_bw_bytes
    ).n_avg


class TestOperatingCurve:
    def test_monotone_in_utilization(self, skl):
        calc = MlpCalculator(skl)
        peak = skl.memory.peak_bw_bytes
        curve = [calc.calculate(0.9 * peak * i / 32) for i in range(33)]
        n_values = [p.n_avg for p in curve]
        lat_values = [p.latency_ns for p in curve]
        assert n_values == sorted(n_values)
        assert lat_values == sorted(lat_values)

    def test_point_satisfies_equation2(self, skl):
        point = MlpCalculator(skl).calculate(0.45 * skl.memory.peak_bw_bytes)
        n = mlp_from_bandwidth(
            point.bandwidth_gbs * 1e9, point.latency_ns, 64, cores=24
        )
        assert n == pytest.approx(point.n_avg, rel=1e-9)


class TestMshrCrossing:
    def test_skl_l1_binds_below_achievable(self, skl):
        """10 L1 MSHRs/core fill around 80% utilization on SKL."""
        assert _n_avg(skl, 0.6) < skl.mshr_limit(1) <= _n_avg(skl, 0.87)

    def test_skl_l2_never_binds(self, skl):
        """16 L2 MSHRs can feed SKL's memory: no crossing below
        achievable bandwidth - today's regime."""
        assert _n_avg(skl, skl.memory.achievable_fraction) < skl.mshr_limit(2)

    def test_hbm3_l2_binds_early(self):
        """The §IV-G regime: the crossing moves far below achievable."""
        machine = hbm3_concept()
        assert _n_avg(machine, 0.5) >= machine.mshr_limit(2)


class TestDemandSweep:
    def test_bandwidth_monotone_and_saturating(self, knl):
        demands = [1, 2, 4, 8, 16, 32, 64]
        bws = [solve_operating_point(knl, d, 2).bandwidth_gbs for d in demands]
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
