"""SimStats / OccupancyTracker / MemoryStats unit behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import OccupancyTracker, SimStats
from repro.sim.stats import CoreStats, LevelStats, MemoryStats


class TestOccupancyTracker:
    def test_integral_accumulates(self):
        tracker = OccupancyTracker("t", capacity=4)
        tracker.add(0.0, +2)
        tracker.add(10.0, -1)  # 2 held for 10ns
        tracker.update(20.0)  # 1 held for 10ns
        assert tracker.integral_ns == pytest.approx(30.0)
        assert tracker.average(20.0) == pytest.approx(1.5)

    def test_negative_occupancy_rejected(self):
        tracker = OccupancyTracker("t", capacity=4)
        with pytest.raises(ValueError):
            tracker.add(0.0, -1)

    def test_over_capacity_rejected(self):
        tracker = OccupancyTracker("t", capacity=1)
        tracker.add(0.0, +1)
        with pytest.raises(ValueError):
            tracker.add(1.0, +1)

    def test_time_backwards_rejected(self):
        tracker = OccupancyTracker("t", capacity=4)
        tracker.update(10.0)
        with pytest.raises(ValueError):
            tracker.update(5.0)

    def test_add_rejects_time_backwards(self):
        tracker = OccupancyTracker("t", capacity=4)
        tracker.add(10.0, +1)
        with pytest.raises(ValueError, match="time went backwards"):
            tracker.add(5.0, -1)

    def test_add_rejects_negative_and_over_capacity(self):
        tracker = OccupancyTracker("t", capacity=2)
        with pytest.raises(ValueError, match="negative"):
            tracker.add(1.0, -1)
        tracker = OccupancyTracker("t", capacity=2)
        tracker.add(1.0, +2)
        with pytest.raises(ValueError, match="exceeds capacity"):
            tracker.add(2.0, +1)

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        steps=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
                st.integers(-3, 3),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_add_matches_add_batch(self, capacity, steps):
        """Scalar add and add_batch leave bit-identical trackers."""
        times, deltas = [], []
        now, occupancy = 0.0, 0
        for dt, delta in steps:
            now += dt
            delta = max(-occupancy, min(delta, capacity - occupancy))
            occupancy += delta
            times.append(now)
            deltas.append(delta)
        scalar = OccupancyTracker("t", capacity=capacity)
        for t, delta in zip(times, deltas):
            scalar.add(t, delta)
        batched = OccupancyTracker("t", capacity=capacity)
        batched.add_batch(np.array(times), np.array(deltas))
        for field_name in ("integral_ns", "full_time_ns", "peak", "occupancy"):
            got, want = getattr(scalar, field_name), getattr(batched, field_name)
            assert type(got) is type(want)
            assert got == want and repr(got) == repr(want), field_name
        assert scalar.last_update_ns == batched.last_update_ns

    def test_average_of_empty_window(self):
        assert OccupancyTracker("t", 4).average(0.0) == 0.0

    def test_full_flag(self):
        tracker = OccupancyTracker("t", capacity=2)
        tracker.add(0.0, +2)
        assert tracker.is_full


class TestLevelStats:
    def test_miss_rate(self):
        level = LevelStats(hits=75, misses=25)
        assert level.accesses == 100
        assert level.miss_rate == pytest.approx(0.25)

    def test_miss_rate_empty(self):
        assert LevelStats().miss_rate == 0.0


class TestMemoryStats:
    def test_totals_and_fractions(self):
        mem = MemoryStats(
            demand_read_bytes=100.0, demand_write_bytes=50.0, prefetch_bytes=50.0
        )
        assert mem.total_bytes == 200.0
        assert mem.prefetch_fraction == pytest.approx(0.25)

    def test_avg_latency_empty(self):
        assert MemoryStats().avg_latency_ns == 0.0

    def test_prefetch_fraction_empty(self):
        assert MemoryStats().prefetch_fraction == 0.0


class TestSimStats:
    def test_bandwidth_zero_without_time(self):
        assert SimStats().bandwidth_bytes_per_s() == 0.0

    def test_avg_occupancy_without_trackers(self):
        assert SimStats().avg_occupancy(1) == 0.0

    def test_finalize_closes_trackers(self):
        stats = SimStats()
        tracker = OccupancyTracker("t", capacity=4)
        tracker.add(0.0, +1)
        stats.l1_occupancy.append(tracker)
        stats.finalize(100.0)
        assert stats.elapsed_ns == 100.0
        assert tracker.integral_ns == pytest.approx(100.0)

    def test_per_core_vs_total_occupancy(self):
        stats = SimStats()
        for _ in range(2):
            tracker = OccupancyTracker("t", capacity=8)
            tracker.add(0.0, +4)
            stats.l1_occupancy.append(tracker)
        stats.finalize(10.0)
        assert stats.avg_occupancy(1, per_core=True) == pytest.approx(4.0)
        assert stats.avg_occupancy(1, per_core=False) == pytest.approx(8.0)

    def test_mshr_full_fraction(self):
        stats = SimStats()
        tracker = OccupancyTracker("t", capacity=1)
        tracker.add(0.0, +1)
        tracker.add(5.0, -1)
        stats.l1_occupancy.append(tracker)
        stats.finalize(10.0)
        assert stats.mshr_full_fraction(1) == pytest.approx(0.5)

    def test_littles_law_check_empty(self):
        check = SimStats().littles_law_check()
        assert check["relative_error"] == 0.0

    def test_core_stats_defaults(self):
        core = CoreStats()
        assert not core.finished
        assert core.issued_accesses == 0
