"""Persistent tallies and the stats scan (repro.perf.cache).

Pins the append-only hit/miss ledger and the ``repro cache stats`` scan
of the digest shards.
"""

from __future__ import annotations

import pytest

from repro.perf.cache import (
    CacheCounters,
    SimCache,
    collect_stats,
    read_tallies,
    stable_digest,
)

DIGEST = stable_digest({"payload": "unit"})


@pytest.fixture
def cache(tmp_path):
    return SimCache(tmp_path, enabled=True)


class TestTallies:
    def test_flush_appends_deltas(self, cache):
        cache.counters.hits += 2
        cache.counters.misses += 1
        cache.flush_tallies()
        cache.counters.hits += 3
        cache.flush_tallies()
        total = read_tallies(cache.cache_dir)
        assert (total.hits, total.misses) == (5, 1)

    def test_flush_skips_when_idle(self, cache):
        cache.flush_tallies()
        assert not (cache.cache_dir / "tallies.jsonl").exists()

    def test_torn_ledger_line_skipped(self, cache):
        cache.counters.hits += 1
        cache.flush_tallies()
        with open(cache.cache_dir / "tallies.jsonl", "a") as fh:
            fh.write('{"hits": 4, "mis')  # torn append
        total = read_tallies(cache.cache_dir)
        assert total.hits == 1

    def test_counters_diff_and_add(self):
        a = CacheCounters(hits=5, misses=3, stores=2, errors=1)
        b = a.snapshot()
        a.hits += 2
        assert a.diff(b).hits == 2
        b.add(CacheCounters(hits=1))
        assert b.hits == 6


class TestCollectStats:
    def test_scan_counts_entries_and_quarantine(self, cache):
        shard = cache.cache_dir / DIGEST[:2]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{DIGEST}.json").write_text("{}")
        (shard / "dead.corrupt").write_text("x")
        # Anything outside the two-hex shards is not an entry.
        stray = cache.cache_dir / "calibration" / DIGEST[:2]
        stray.mkdir(parents=True)
        (stray / f"{DIGEST}.json").write_text("{}")
        cache.counters.misses += 4
        stats = collect_stats(cache)
        assert stats.entries == 1
        assert stats.total_bytes == 2
        assert stats.corrupt_entries == 1
        # collect_stats flushes the live counters into the ledger first.
        assert stats.tallies.misses == 4

    def test_scan_of_empty_dir(self, cache):
        stats = collect_stats(cache)
        assert stats.entries == 0
        assert stats.total_bytes == 0
