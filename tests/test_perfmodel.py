"""Fixed-point solver and runtime model."""

import pytest

from repro.core import AccessPattern
from repro.errors import ConfigurationError
from repro.optim import TransformEffect, WorkloadState
from repro.perfmodel import RuntimeModel, solve_operating_point


def _state(machine_name="skl", **overrides):
    defaults = dict(
        workload="w",
        machine_name=machine_name,
        routine="k",
        pattern=AccessPattern.RANDOM,
        random_fraction=0.9,
        binding_level=1,
        demand_mlp=5.0,
    )
    defaults.update(overrides)
    return WorkloadState(**defaults)


class TestSolver:
    def test_consistency_with_littles_law(self, skl):
        """At the solution, BW, latency and n satisfy Equation 2."""
        point = solve_operating_point(skl, 5.0, 1)
        reconstructed = (
            point.bandwidth_bytes * point.latency_ns * 1e-9 / 64 / skl.active_cores
        )
        assert reconstructed == pytest.approx(point.n_observed, rel=1e-6)

    def test_latency_lies_on_machine_curve_when_uncapped(self, skl):
        point = solve_operating_point(skl, 5.0, 1)
        assert not point.bandwidth_capped
        model = skl.latency_model
        u = point.bandwidth_bytes / skl.memory.peak_bw_bytes
        assert point.latency_ns == pytest.approx(model.latency_ns(u), rel=1e-3)

    def test_demand_clipped_at_mshr_limit(self, skl):
        low = solve_operating_point(skl, 10.0, 1)
        high = solve_operating_point(skl, 50.0, 1)  # clipped at 10 L1 MSHRs
        assert high.n_sustained == 10.0
        assert high.bandwidth_bytes == pytest.approx(low.bandwidth_bytes, rel=1e-6)

    def test_binding_level_changes_limit(self, skl):
        l1 = solve_operating_point(skl, 50.0, 1)  # limit 10
        l2 = solve_operating_point(skl, 50.0, 2)  # limit 16
        assert l2.bandwidth_bytes > l1.bandwidth_bytes

    def test_capped_regime_backs_out_latency(self, skl):
        """HPCG-on-SKL: demand exceeds the cap, latency inflates to
        keep Little's law consistent."""
        point = solve_operating_point(skl, 14.0, 2)
        assert point.bandwidth_capped
        assert point.bandwidth_bytes == pytest.approx(
            skl.memory.achievable_bw_bytes, rel=1e-3
        )
        model = skl.latency_model
        u = point.bandwidth_bytes / skl.memory.peak_bw_bytes
        assert point.latency_ns >= model.latency_ns(u) - 1e-9

    def test_monotone_in_demand(self, knl):
        bws = [
            solve_operating_point(knl, d, 2).bandwidth_bytes
            for d in (1.0, 4.0, 8.0, 16.0)
        ]
        assert bws == sorted(bws)

    def test_isx_skl_operating_point(self, skl):
        """The solver regenerates Table IV row 1 from demand alone."""
        point = solve_operating_point(skl, 10.5, 1)
        assert point.bandwidth_bytes / 1e9 == pytest.approx(106.9, rel=0.03)
        assert point.latency_ns == pytest.approx(145, abs=6)

    def test_rejects_bad_demand(self, skl):
        with pytest.raises(ConfigurationError):
            solve_operating_point(skl, 0.0, 1)

    def test_rejects_bad_cores(self, skl):
        with pytest.raises(ConfigurationError):
            solve_operating_point(skl, 5.0, 1, cores=1000)

    def test_profile_as_curve(self, skl, xmem_skl_profile):
        """A measured X-Mem profile plugs in as the latency source."""
        point = solve_operating_point(skl, 5.0, 1, curve=xmem_skl_profile)
        assert point.bandwidth_bytes > 0


class TestRuntimeModel:
    def test_speedup_is_bw_over_traffic_ratio(self, skl):
        model = RuntimeModel(skl)
        base = _state()
        after = TransformEffect(demand_factor=1.5, traffic_factor=1.2).apply(
            base, "smt2"
        )
        pred_base = model.predict(base)
        pred_after = model.predict(after)
        expected = (
            pred_after.point.bandwidth_bytes / pred_base.point.bandwidth_bytes
        ) / 1.2
        assert pred_after.speedup_over(pred_base) == pytest.approx(expected, rel=1e-9)

    def test_traffic_reduction_speeds_up_at_cap(self, skl):
        """Tiling at saturated bandwidth: speedup = traffic ratio."""
        model = RuntimeModel(skl)
        base = _state(binding_level=2, demand_mlp=20.0, pattern=AccessPattern.STREAMING)
        tiled = TransformEffect(traffic_factor=0.7).apply(base, "loop_tiling")
        speedup = model.predict(tiled).speedup_over(model.predict(base))
        assert speedup == pytest.approx(1.0 / 0.7, rel=1e-3)

    def test_machine_mismatch_rejected(self, skl):
        with pytest.raises(ConfigurationError):
            RuntimeModel(skl).predict(_state(machine_name="knl"))

    def test_prediction_exposes_observables(self, skl):
        pred = RuntimeModel(skl).predict(_state())
        assert pred.bandwidth_gbs > 0
        assert pred.latency_ns > 0
        assert pred.n_avg > 0
