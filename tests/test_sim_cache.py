"""Cache tag arrays: hits, LRU, eviction, writebacks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import CacheSpec
from repro.sim import CacheArray


def _tiny_cache(ways: int = 2, sets: int = 4) -> CacheArray:
    spec = CacheSpec(1, sets * ways * 64, 64, 10, associativity=ways)
    return CacheArray(spec, "test")


class TestBasics:
    def test_miss_then_fill_then_hit(self):
        cache = _tiny_cache()
        assert not cache.access(0)
        cache.fill(0)
        assert cache.access(0)

    def test_line_of_alignment(self):
        cache = _tiny_cache()
        assert cache.line_of(100) == 64
        assert cache.line_of(63) == 0

    def test_probe_does_not_touch_lru(self):
        cache = _tiny_cache(ways=2, sets=1)
        cache.fill(0)
        cache.fill(64)
        cache.probe(0)  # must NOT refresh line 0
        cache.fill(128)  # evicts LRU = line 0
        assert not cache.probe(0)
        assert cache.probe(64)


class TestLru:
    def test_eviction_order_is_lru(self):
        cache = _tiny_cache(ways=2, sets=1)
        cache.fill(0)
        cache.fill(64)
        cache.access(0)  # 0 becomes MRU
        cache.fill(128)  # evicts 64
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_refill_refreshes_without_eviction(self):
        cache = _tiny_cache(ways=2, sets=1)
        cache.fill(0)
        cache.fill(64)
        assert cache.fill(0) is None  # already present
        assert cache.resident_lines() == 2


class TestDirtyWritebacks:
    def test_clean_eviction_returns_none(self):
        cache = _tiny_cache(ways=1, sets=1)
        cache.fill(0)
        assert cache.fill(64) is None

    def test_dirty_eviction_returns_victim(self):
        cache = _tiny_cache(ways=1, sets=1)
        cache.fill(0, dirty=True)
        assert cache.fill(64) == 0
        assert cache.dirty_evictions == 1

    def test_write_access_marks_dirty(self):
        cache = _tiny_cache(ways=1, sets=1)
        cache.fill(0)
        cache.access(0, write=True)
        assert cache.fill(64) == 0  # write made it dirty


class TestInvalidate:
    def test_invalidate_present_line(self):
        cache = _tiny_cache()
        cache.fill(0)
        assert cache.invalidate(0)
        assert not cache.probe(0)

    def test_invalidate_absent_line(self):
        assert not _tiny_cache().invalidate(0)


class TestSetMapping:
    def test_different_sets_do_not_conflict(self):
        cache = _tiny_cache(ways=1, sets=4)
        for i in range(4):
            cache.fill(i * 64)
        assert cache.resident_lines() == 4
        assert cache.evictions == 0

    def test_same_set_conflicts(self):
        cache = _tiny_cache(ways=1, sets=4)
        cache.fill(0)
        cache.fill(4 * 64)  # maps to set 0 again
        assert cache.evictions == 1


class _ListLru:
    """Reference LRU: each set a list of ``(line, dirty)``, front = LRU.

    The list-scanning implementation ``CacheArray`` used before its sets
    became ordered dicts, kept here as the oracle for the dict version.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int = 64) -> None:
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.line_bytes = line_bytes
        self.fills = self.evictions = self.dirty_evictions = 0

    def _set(self, line):
        return self.sets[(line // self.line_bytes) % len(self.sets)]

    def access(self, line, write):
        ways = self._set(line)
        for i, (tag, dirty) in enumerate(ways):
            if tag == line:
                del ways[i]
                ways.append((line, dirty or write))
                return True
        return False

    def fill(self, line, dirty):
        ways = self._set(line)
        for i, (tag, was_dirty) in enumerate(ways):
            if tag == line:
                del ways[i]
                ways.append((line, was_dirty or dirty))
                return None
        self.fills += 1
        victim = None
        if len(ways) >= self.ways:
            victim_addr, victim_dirty = ways.pop(0)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
                victim = victim_addr
        ways.append((line, dirty))
        return victim

    def invalidate(self, line):
        ways = self._set(line)
        for i, (tag, _) in enumerate(ways):
            if tag == line:
                del ways[i]
                return True
        return False


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["access", "fill", "invalidate", "touch"]),
        st.integers(0, 23),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=12),
    ),
    max_size=80,
)


class TestAgainstListReference:
    """The dict-backed sets step exactly like the list-scanning reference."""

    @settings(max_examples=150, deadline=None)
    @given(ways=st.integers(1, 4), sets=st.sampled_from([1, 2, 4]), ops=_OPS)
    def test_random_sequences_match(self, ways, sets, ops):
        cache = _tiny_cache(ways=ways, sets=sets)
        ref = _ListLru(sets, ways)
        for op, idx, flag, touches in ops:
            line = idx * 64
            if op == "access":
                assert cache.access(line, write=flag) == ref.access(line, flag)
            elif op == "fill":
                assert cache.fill(line, dirty=flag) == ref.fill(line, flag)
            elif op == "invalidate":
                assert cache.invalidate(line) == ref.invalidate(line)
            else:
                resident = [tag for ways_ in ref.sets for tag, _ in ways_]
                if not resident or not touches:
                    continue
                run = [(resident[i % len(resident)], w) for i, w in touches]
                cache.touch_batch(
                    np.array([t for t, _ in run], dtype=np.uint64),
                    np.array([w for _, w in run], dtype=bool),
                )
                cache.flush_batch()
                for t, w in run:
                    assert ref.access(t, w)
            assert cache.lru_state() == ref.sets
            assert (cache.fills, cache.evictions, cache.dirty_evictions) == (
                ref.fills,
                ref.evictions,
                ref.dirty_evictions,
            )
            assert cache.resident_lines() == sum(len(w) for w in ref.sets)
