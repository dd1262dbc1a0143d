"""Stream prefetcher: training, stream limits, random-blindness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import StreamPrefetcher


def _feed_stream(pf: StreamPrefetcher, start_line: int, count: int, line=64):
    """Feed a unit-stride line stream; return all prefetch candidates."""
    out = []
    for i in range(count):
        out.extend(pf.observe((start_line + i) * line))
    return out


class TestTraining:
    def test_needs_training_before_issuing(self):
        pf = StreamPrefetcher(64, train_threshold=2)
        assert pf.observe(0) == []
        assert pf.observe(64) == []  # first step: confidence 1

    def test_issues_after_training(self):
        pf = StreamPrefetcher(64, train_threshold=2, degree=2, distance=8)
        candidates = _feed_stream(pf, 0, 5)
        assert candidates  # stream detected
        # Prefetches run ahead of the demand stream.
        assert min(candidates) >= 8 * 64

    def test_descending_stream_detected(self):
        pf = StreamPrefetcher(64, train_threshold=2)
        out = []
        for i in range(60, 40, -1):
            out.extend(pf.observe(i * 64))
        assert out
        assert all(addr < 60 * 64 for addr in out)

    def test_descending_stream_stops_at_line_zero(self):
        # Trained at line 3, two lines ahead: targets 1, 0, -1, -2, of
        # which only lines 1 and 0 exist.  The next burst lies wholly
        # below line 0 and is empty.
        pf = StreamPrefetcher(64, degree=4, distance=2, train_threshold=2)
        out = [pf.observe(line * 64) for line in (5, 4, 3, 2)]
        assert out == [[], [], [64, 0], []]
        assert pf.issued == 2

    def test_random_accesses_never_trigger(self):
        """The ISx property: random pages defeat the prefetcher."""
        import random

        rng = random.Random(3)
        pf = StreamPrefetcher(64)
        out = []
        for _ in range(300):
            out.extend(pf.observe(rng.randrange(1 << 30) // 64 * 64))
        assert pf.issued <= 4  # essentially nothing

    def test_same_line_repeats_are_ignored(self):
        pf = StreamPrefetcher(64)
        for _ in range(10):
            assert pf.observe(0) == []


class TestStreamLimit:
    def test_tracks_limited_streams(self):
        """KNL's 16-stream tracker (paper Section IV-B)."""
        pf = StreamPrefetcher(64, max_streams=4)
        # Touch 8 distinct pages: only 4 stream slots exist.
        for page in range(8):
            pf.observe(page * 4096)
        assert pf.active_streams <= 4

    def test_stale_stream_evicted_for_new_one(self):
        pf = StreamPrefetcher(64, max_streams=2, train_threshold=2)
        _feed_stream(pf, 0, 4)  # page 0 live
        pf.observe(1 * 4096)  # page 1
        pf.observe(2 * 4096)  # page 2 evicts the stalest
        assert pf.active_streams == 2


class TestToggle:
    def test_disabled_prefetcher_is_silent(self):
        pf = StreamPrefetcher(64, enabled=False)
        assert _feed_stream(pf, 0, 20) == []
        assert pf.issued == 0


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            StreamPrefetcher(0)
        with pytest.raises(SimulationError):
            StreamPrefetcher(64, degree=0)

    def test_degree_controls_burst_size(self):
        pf = StreamPrefetcher(64, degree=4, train_threshold=2)
        candidates = []
        for i in range(3):
            candidates = pf.observe(i * 64) or candidates
        assert len(candidates) == 4


class _LruReference(StreamPrefetcher):
    """Reference model: an explicit recency list picks the eviction victim.

    Every observed page moves to the back of ``recency`` (opening a
    stream counts as a touch); eviction deletes the page at its front.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recency = []

    def _observe_one(self, page, line_no):
        out = super()._observe_one(page, line_no)
        if page in self.recency:
            self.recency.remove(page)
        if page in self._streams:
            self.recency.append(page)
        return out

    def _evict_stale(self):
        if not self.recency:
            return False
        del self._streams[self.recency.pop(0)]
        return True


#: Line addresses over eight 4 KiB pages: more pages than stream slots,
#: with small in-page steps so streams train, emit and get evicted.
_LINE_SEQUENCES = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 63)).map(
        lambda pl: pl[0] * 4096 + pl[1] * 64
    ),
    min_size=1,
    max_size=120,
)


class TestEvictionOrder:
    """First-key eviction picks the least recently touched stream."""

    @settings(max_examples=150, deadline=None)
    @given(max_streams=st.integers(1, 4), lines=_LINE_SEQUENCES)
    def test_matches_scan_reference(self, max_streams, lines):
        pf = StreamPrefetcher(64, max_streams=max_streams)
        ref = _LruReference(64, max_streams=max_streams)
        for line in lines:
            assert pf.observe(line) == ref.observe(line)
            assert pf.snapshot() == ref.snapshot()
            # The table's key order is the recency order.
            assert list(pf.snapshot()[0]) == ref.recency
        assert pf.dropped_no_stream_slot == ref.dropped_no_stream_slot

    @settings(max_examples=150, deadline=None)
    @given(
        max_streams=st.integers(1, 4),
        prefix=_LINE_SEQUENCES,
        suffix=_LINE_SEQUENCES,
    )
    def test_restored_replay_evicts_like_observe(self, max_streams, prefix, suffix):
        live = StreamPrefetcher(64, max_streams=max_streams)
        for line in prefix:
            live.observe(line)
        replayed = StreamPrefetcher(64, max_streams=max_streams)
        replayed.restore(live.snapshot())
        stop = replayed.observe_replay(np.array(suffix, dtype=np.int64))
        observed = suffix if stop is None else suffix[: stop + 1]
        for line in observed:
            live.observe(line)
        assert replayed.snapshot() == live.snapshot()
        assert list(replayed.snapshot()[0]) == list(live.snapshot()[0])


#: Line addresses over 48 pages: three times the default 16 stream
#: slots, so a run opens many fresh streams, evicts, and revisits
#: pages with short in-page steps that train and emit.
_WIDE_LINES = st.lists(
    st.tuples(st.integers(0, 47), st.integers(0, 63)).map(
        lambda pl: pl[0] * 4096 + pl[1] * 64
    ),
    min_size=0,
    max_size=300,
)


class TestReplayParity:
    """observe_replay against sequential observe() on a 16-stream table."""

    @settings(max_examples=150, deadline=None)
    @given(prefix=_WIDE_LINES, suffix=_WIDE_LINES)
    def test_matches_sequential_observe(self, prefix, suffix):
        live = StreamPrefetcher(64)
        for line in prefix:
            live.observe(line)
        replayed = StreamPrefetcher(64)
        replayed.restore(live.snapshot())
        stop = replayed.observe_replay(np.array(suffix, dtype=np.uint64))
        emitting = None
        for i, line in enumerate(suffix):
            if live.observe(line):
                emitting = i
                break
        assert stop == emitting
        assert replayed.snapshot() == live.snapshot()
        assert list(replayed.snapshot()[0]) == list(live.snapshot()[0])

    def test_fresh_pages_overflow_full_table(self):
        # 40 fresh pages into a full table: every old stream and the
        # first 24 new ones are evicted, in touch order.
        live = StreamPrefetcher(64)
        replayed = StreamPrefetcher(64)
        for page in range(100, 116):
            live.observe(page * 4096)
        replayed.restore(live.snapshot())
        lines = [page * 4096 + 64 for page in range(40)]
        assert replayed.observe_replay(np.array(lines, dtype=np.uint64)) is None
        for line in lines:
            assert live.observe(line) == []
        assert replayed.snapshot() == live.snapshot()
        assert list(replayed.snapshot()[0]) == list(range(24, 40))

    def test_repeat_page_emits_at_its_index(self):
        # A stream trained before the run emits on its next unit step,
        # after fresh pages have already been opened in the run.
        live = StreamPrefetcher(64)
        for i in range(3):
            live.observe(7 * 4096 + i * 64)
        replayed = StreamPrefetcher(64)
        replayed.restore(live.snapshot())
        lines = [page * 4096 for page in range(20, 25)] + [7 * 4096 + 3 * 64]
        assert replayed.observe_replay(np.array(lines, dtype=np.uint64)) == 5
        for line in lines[:5]:
            assert live.observe(line) == []
        assert live.observe(lines[5])
        assert replayed.snapshot() == live.snapshot()
