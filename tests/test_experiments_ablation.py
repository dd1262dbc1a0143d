"""Ablation library functions (repro.experiments.ablation)."""

import dataclasses

import pytest

from repro.analysis.rules.specs import check_machine
from repro.core import recipe as recipe_module
from repro.experiments import (
    DEFAULT_THRESHOLDS,
    latency_curve_perturbation,
    prefetch_distance_sweep,
    scaled_latency_curves,
    threshold_sweep,
)
from repro.machines import get_machine


class TestThresholdSweep:
    def test_default_point_is_clean(self):
        scores = threshold_sweep(settings=(DEFAULT_THRESHOLDS,))
        assert scores[DEFAULT_THRESHOLDS].unexplained_disagreements == 0

    def test_thresholds_restored_after_sweep(self):
        before = recipe_module.FULL_RATIO
        threshold_sweep(settings=((0.5, 0.4, 0.5),))
        assert recipe_module.FULL_RATIO == before

    def test_extreme_thresholds_do_change_outcomes(self):
        """Sanity: the knob is actually connected."""
        scores = threshold_sweep(settings=((0.30, 0.10, 0.30),))
        score = scores[(0.30, 0.10, 0.30)]
        assert score.unexplained_disagreements > 0


class TestCurvePerturbation:
    def test_context_scales_and_restores(self):
        import importlib

        skl_mod = importlib.import_module("repro.machines.skl")
        original = skl_mod.SKL_LATENCY_CALIBRATION
        with scaled_latency_curves(2.0):
            machine = get_machine("skl")
            assert machine.latency_calibration[0][1] == pytest.approx(
                2.0 * original[0][1]
            )
        assert skl_mod.SKL_LATENCY_CALIBRATION == original
        assert get_machine("skl").latency_calibration[0][1] == pytest.approx(
            original[0][1]
        )

    def test_idle_latency_follows_scaled_curve(self):
        # Idle latency has one source, the curve's first point, so the
        # scaled context doubles it and SPEC003's Eq. 2 ceiling uses it.
        # With 8 L2 MSHRs, skl's 111 GB/s achievable bandwidth fits the
        # ceiling at 80 ns (154 GB/s) but not at 160 ns (77 GB/s).
        def narrowed(machine):
            return dataclasses.replace(
                machine, l2=dataclasses.replace(machine.l2, mshrs=8)
            )

        idle = get_machine("skl").latency_model.idle_latency_ns
        assert list(check_machine(narrowed(get_machine("skl")))) == []
        with scaled_latency_curves(2.0):
            scaled = get_machine("skl")
            assert scaled.latency_model.idle_latency_ns == 2.0 * idle
            found = list(check_machine(narrowed(scaled)))
        assert [v.rule_id for v in found] == ["SPEC003"]
        assert f"/ {2.0 * idle:.0f} ns" in found[0].message

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            with scaled_latency_curves(0.0):
                pass

    def test_mild_perturbation_is_stable(self):
        result = latency_curve_perturbation(1.05)
        assert result.total_rows >= 28
        assert result.stability >= 0.9


class TestPrefetchDistanceSweep:
    def test_crossover_shape(self):
        points = prefetch_distance_sweep(
            distances=(0, 64), accesses_per_thread=2000
        )
        base, far = points
        assert base.distance == 0 and far.distance == 64
        assert far.l1_full_fraction < base.l1_full_fraction
        assert far.bandwidth_gbs > base.bandwidth_gbs

    def test_rerun_resumes_from_sim_cache(self, fresh_sim_cache):
        (done,) = prefetch_distance_sweep(distances=(0,), accesses_per_thread=600)
        cache = fresh_sim_cache()
        points = prefetch_distance_sweep(
            distances=(0, 16), accesses_per_thread=600
        )
        assert (cache.counters.hits, cache.counters.misses) == (1, 1)
        assert points[0] == done
