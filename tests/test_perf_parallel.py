"""fan_out semantics: ordering, worker counts, fallback, errors, counters."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.perf import fan_out, resolve_jobs
from repro.perf.parallel import MAX_JOBS


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)


class TestFanOut:
    def test_serial_matches_plain_loop(self):
        items = list(range(10))
        assert fan_out(_square, items, jobs=1) == [x * x for x in items]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_preserves_item_order(self, jobs):
        items = list(range(12))
        assert fan_out(_square, items, jobs=jobs) == [x * x for x in items]

    def test_empty_items(self):
        assert fan_out(_square, [], jobs=4) == []

    def test_single_item_runs_serially(self):
        assert fan_out(_square, [7], jobs=8) == [49]

    def test_generator_input_accepted(self):
        assert fan_out(_square, (x for x in range(4)), jobs=1) == [0, 1, 4, 9]

    def test_worker_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom on 3"):
            fan_out(_fail_on_three, [1, 2, 3, 4], jobs=1)

    def test_worker_exception_propagates_parallel(self):
        with pytest.raises(ValueError, match="boom on 3"):
            fan_out(_fail_on_three, [1, 2, 3, 4], jobs=2)

    def test_unpicklable_callable_falls_back_to_serial(self):
        # A closure cannot cross a process boundary; fan_out must warn
        # and still produce the right answer.
        offset = 10
        with pytest.warns(UserWarning, match="serially"):
            out = fan_out(lambda x: x + offset, [1, 2, 3], jobs=2)
        assert out == [11, 12, 13]


def _cache_miss_probe(x):
    """One guaranteed cache miss per call (counter-delta merge probe)."""
    from repro.perf.cache import get_cache

    get_cache().load(f"{x:064x}")
    return x


class TestJobsCeiling:
    def test_absurd_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="absurd"):
            resolve_jobs(MAX_JOBS + 1)

    def test_bad_env_error_chains_cause(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError) as info:
            resolve_jobs(None)
        assert isinstance(info.value.__cause__, ValueError)


class TestCounterMerge:
    def test_worker_cache_counters_merged_into_parent(self):
        # Each call performs exactly one cache miss inside a worker; the
        # parent's counters must see every one of them.
        from repro.perf.cache import get_cache

        items = list(range(4))
        before = get_cache().counters.snapshot()
        out = fan_out(_cache_miss_probe, items, jobs=2)
        delta = get_cache().counters.diff(before)
        assert out == items
        assert delta.misses == len(items)


class TestSerialFallback:
    def test_pool_that_cannot_start_falls_back(self, monkeypatch):
        # Sandboxes without working semaphores raise OSError at pool
        # construction; results must still arrive, serially, with a
        # warning.
        import concurrent.futures

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("semaphores unavailable")

        # fan_out looks the pool class up where it imports it from.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        with pytest.warns(UserWarning, match="serially"):
            out = fan_out(_square, [1, 2, 3], jobs=2)
        assert out == [1, 4, 9]

    def test_fallback_propagates_item_exception(self, monkeypatch):
        import concurrent.futures

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("semaphores unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        with pytest.warns(UserWarning, match="serially"):
            with pytest.raises(ValueError, match="boom on 3"):
                fan_out(_fail_on_three, [1, 2, 3], jobs=2)
