"""MSHR file semantics: allocation, merging, release, waiters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import MshrFile
from repro.sim.stats import OccupancyTracker


class TestAllocation:
    def test_allocate_tracks_occupancy(self):
        mshr = MshrFile("t", 4)
        mshr.allocate(0.0, 0x1000, is_prefetch=False)
        assert mshr.occupancy == 1
        assert not mshr.is_full

    def test_fills_to_capacity(self):
        mshr = MshrFile("t", 2)
        mshr.allocate(0.0, 0x0, is_prefetch=False)
        mshr.allocate(0.0, 0x40, is_prefetch=False)
        assert mshr.is_full

    def test_duplicate_allocation_rejected(self):
        mshr = MshrFile("t", 4)
        mshr.allocate(0.0, 0x1000, is_prefetch=False)
        with pytest.raises(SimulationError):
            mshr.allocate(1.0, 0x1000, is_prefetch=False)

    def test_allocate_on_full_rejected(self):
        mshr = MshrFile("t", 1)
        mshr.allocate(0.0, 0x0, is_prefetch=False)
        with pytest.raises(SimulationError):
            mshr.allocate(0.0, 0x40, is_prefetch=False)

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            MshrFile("t", 0)


class TestMerging:
    def test_secondary_miss_merges_without_new_entry(self):
        """Duplicate requests never allocate a second MSHR (paper III-A)."""
        mshr = MshrFile("t", 4)
        mshr.allocate(0.0, 0x1000, is_prefetch=False)
        called = []
        mshr.merge(0x1000, lambda: called.append(1), demand=True)
        assert mshr.occupancy == 1
        assert mshr.merges == 1

    def test_demand_merge_upgrades_prefetch_entry(self):
        mshr = MshrFile("t", 4)
        entry = mshr.allocate(0.0, 0x1000, is_prefetch=True)
        mshr.merge(0x1000, None, demand=True)
        assert not entry.is_prefetch

    def test_merge_without_entry_rejected(self):
        with pytest.raises(SimulationError):
            MshrFile("t", 4).merge(0x1000, None, demand=True)


class TestRelease:
    def test_release_returns_waiters(self):
        mshr = MshrFile("t", 4)
        mshr.allocate(0.0, 0x1000, is_prefetch=False)
        done = []
        mshr.merge(0x1000, lambda: done.append("a"), demand=True)
        entry = mshr.release(10.0, 0x1000)
        assert len(entry.waiters) == 1
        assert mshr.occupancy == 0

    def test_release_without_entry_rejected(self):
        with pytest.raises(SimulationError):
            MshrFile("t", 4).release(0.0, 0x1000)

    def test_release_wakes_free_waiters(self):
        mshr = MshrFile("t", 1)
        mshr.allocate(0.0, 0x0, is_prefetch=False)
        woken = []
        mshr.wait_for_free(lambda: woken.append(1))
        mshr.release(5.0, 0x0)
        assert woken == [1]

    def test_free_waiters_fire_once(self):
        mshr = MshrFile("t", 1)
        mshr.allocate(0.0, 0x0, is_prefetch=False)
        woken = []
        mshr.wait_for_free(lambda: woken.append(1))
        mshr.release(5.0, 0x0)
        mshr.allocate(6.0, 0x40, is_prefetch=False)
        mshr.release(7.0, 0x40)
        assert woken == [1]


class TestOccupancyIntegral:
    def test_time_average_occupancy(self):
        """One entry held 10ns within a 20ns window averages 0.5."""
        mshr = MshrFile("t", 4)
        mshr.allocate(0.0, 0x0, is_prefetch=False)
        mshr.release(10.0, 0x0)
        mshr.tracker.update(20.0)
        assert mshr.tracker.average(20.0) == pytest.approx(0.5)

    def test_full_time_accounting(self):
        mshr = MshrFile("t", 1)
        mshr.allocate(0.0, 0x0, is_prefetch=False)
        mshr.release(8.0, 0x0)
        mshr.tracker.update(10.0)
        assert mshr.tracker.full_time_ns == pytest.approx(8.0)

    def test_peak_tracking(self):
        mshr = MshrFile("t", 3)
        mshr.allocate(0.0, 0x0, is_prefetch=False)
        mshr.allocate(1.0, 0x40, is_prefetch=False)
        mshr.release(2.0, 0x0)
        assert mshr.tracker.peak == 2


def _tracker_state(tracker):
    """The integrated fields, as reprs: ``-0.0`` must not pass for ``0.0``."""
    return [
        repr(v)
        for v in (
            tracker.integral_ns,
            tracker.full_time_ns,
            tracker.last_update_ns,
            tracker.peak,
            tracker.occupancy,
        )
    ]


#: One step: a time advance (zero makes same-instant steps) and an op,
#: 0 = allocate a new line, k > 0 = release the (k mod live)-th line.
#: An allocate on a full file releases instead, a release on an empty
#: file allocates.
_STEPS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        st.integers(0, 7),
    ),
    max_size=80,
)


class TestInlinedOccupancyStep:
    """``allocate``/``release`` integrate occupancy without calling the tracker.

    The reference is an :class:`OccupancyTracker` of the same name and
    capacity driven through :meth:`OccupancyTracker.add`; after every
    step the two must agree bit for bit.
    """

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 6), steps=_STEPS)
    def test_matches_tracker_add(self, capacity, steps):
        mshr = MshrFile("t", capacity)
        ref = OccupancyTracker(name="t", capacity=capacity)
        now = 0.0
        live = []
        next_line = 0
        for advance, op in steps:
            now += advance
            if (op == 0 and len(live) < capacity) or not live:
                line = next_line * 64
                next_line += 1
                mshr.allocate(now, line, is_prefetch=op % 2 == 1)
                ref.add(now, +1)
                live.append(line)
            else:
                mshr.release(now, live.pop(op % len(live)))
                ref.add(now, -1)
            assert _tracker_state(mshr.tracker) == _tracker_state(ref)
            assert mshr.occupancy == len(live)

    @pytest.mark.parametrize("release", [False, True])
    def test_time_backwards_raises(self, release):
        mshr = MshrFile("t", 4)
        ref = OccupancyTracker(name="t", capacity=4)
        mshr.allocate(5.0, 0x0, is_prefetch=False)
        ref.add(5.0, +1)
        with pytest.raises(ValueError, match="time went backwards") as want:
            ref.add(4.0, -1 if release else +1)
        with pytest.raises(ValueError, match="time went backwards") as got:
            if release:
                mshr.release(4.0, 0x0)
            else:
                mshr.allocate(4.0, 0x40, is_prefetch=False)
        assert str(got.value) == str(want.value)
        assert _tracker_state(mshr.tracker) == _tracker_state(ref)

    def test_negative_occupancy_raises(self):
        # Only a tracker out of step with the entries can go negative.
        mshr = MshrFile("t", 4)
        mshr.allocate(1.0, 0x0, is_prefetch=False)
        mshr.tracker.occupancy = 0
        ref = OccupancyTracker(name="t", capacity=4)
        ref.add(1.0, +1)
        ref.occupancy = 0
        with pytest.raises(ValueError, match="went negative") as want:
            ref.add(2.0, -1)
        with pytest.raises(ValueError, match="went negative") as got:
            mshr.release(2.0, 0x0)
        assert str(got.value) == str(want.value)
        assert _tracker_state(mshr.tracker) == _tracker_state(ref)

    def test_over_capacity_raises(self):
        mshr = MshrFile("t", 2)
        mshr.tracker.occupancy = 2
        ref = OccupancyTracker(name="t", capacity=2, occupancy=2)
        with pytest.raises(ValueError, match="exceeds capacity") as want:
            ref.add(1.0, +1)
        with pytest.raises(ValueError, match="exceeds capacity") as got:
            mshr.allocate(1.0, 0x0, is_prefetch=False)
        assert str(got.value) == str(want.value)
        assert _tracker_state(mshr.tracker) == _tracker_state(ref)
