"""The curve-point merge guard of LatencyProfile."""

import pytest

from repro.errors import ProfileError
from repro.memory import LatencyProfile


def _curve(points):
    return LatencyProfile("m", 100e9, tuple(points))


class TestNearDuplicateMerging:
    def test_subnormal_spacing_is_merged_not_overflowed(self):
        """The hypothesis-found case: near-coincident control points
        must not blow up interpolation slopes."""
        model = _curve(
            [(0.0, 1.0), (2.2e-311, 2.0), (0.5, 2.5), (1.0, 3.0)]
        )
        value = model.latency_ns(5e-324)
        assert 1.0 <= value <= 3.0
        # Monotone across the merged region.
        assert model.latency_ns(0.25) >= value

    def test_merge_keeps_higher_latency(self):
        model = _curve([(0.0, 1.0), (1e-12, 5.0), (1.0, 10.0)])
        # The two left points merge; the survivor carries latency 5.
        assert model.latency_ns(0.0) == pytest.approx(5.0)

    def test_all_points_collapsing_rejected(self):
        with pytest.raises(ProfileError):
            _curve([(0.0, 1.0), (1e-12, 2.0)])

    def test_normal_calibrations_unaffected(self):
        model = _curve([(0.0, 80.0), (0.5, 100.0), (1.0, 180.0)])
        assert len(model.points) == 3
        assert model.latency_ns(0.25) == pytest.approx(90.0)
