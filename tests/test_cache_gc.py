"""Cache garbage collection: ``gc_cache`` and ``repro cache gc``.

The gc contract (docs in :mod:`repro.perf.cache`): entries are evicted
oldest-first across every digest shard; ``--max-age`` removes entries older than the horizon,
``--max-bytes`` then trims the oldest survivors until the footprint
fits; quarantined ``.corrupt`` files are forensic artifacts and are
never deleted; emptied shard directories are pruned.
"""

import os

import pytest

from repro.cli import _parse_age, _parse_size, main
from repro.perf.cache import SimCache, collect_stats, configure_cache, gc_cache


def _plant(cache_dir, digest, *, mtime, body=b"x" * 50):
    """Write one fake cache entry with a controlled modification time."""
    shard = cache_dir / digest[:2]
    shard.mkdir(parents=True, exist_ok=True)
    path = shard / f"{digest}.json"
    path.write_bytes(body)
    os.utime(path, (mtime, mtime))
    return path


@pytest.fixture
def planted(tmp_path):
    """A cache with five entries of known ages in five shards.

    Ages (seconds before ``NOW``): aa..=500, bb..=400, cc..=300,
    dd..=200, ee..=100.  Each entry is 50 bytes, so the total footprint
    is 250 bytes.
    """
    cache = SimCache(tmp_path, enabled=True)
    now = 1_000_000.0
    paths = {
        "aa": _plant(tmp_path, "aa11", mtime=now - 500),
        "bb": _plant(tmp_path, "bb22", mtime=now - 400),
        "cc": _plant(tmp_path, "cc33", mtime=now - 300),
        "dd": _plant(tmp_path, "dd44", mtime=now - 200),
        "ee": _plant(tmp_path, "ee55", mtime=now - 100),
    }
    return cache, now, paths


class TestGcCache:
    def test_no_limits_removes_nothing(self, planted):
        cache, now, paths = planted
        result = gc_cache(cache, now=now)
        assert result.removed_entries == 0
        assert result.kept_entries == 5
        assert result.kept_bytes == 250
        assert all(p.exists() for p in paths.values())

    def test_max_age_evicts_across_shards(self, planted):
        cache, now, paths = planted
        result = gc_cache(cache, max_age_s=250.0, now=now)
        assert result.removed_entries == 3  # aa, bb, and cc
        assert result.removed_bytes == 150
        assert not paths["aa"].exists() and not paths["cc"].exists()
        assert paths["dd"].exists() and paths["ee"].exists()

    def test_max_bytes_evicts_oldest_first(self, planted):
        cache, now, paths = planted
        result = gc_cache(cache, max_bytes=120, now=now)
        # 250 bytes planted; dropping the three oldest reaches 100 <= 120.
        assert result.removed_entries == 3
        assert result.kept_bytes == 100
        assert not paths["aa"].exists()
        assert not paths["bb"].exists()
        assert not paths["cc"].exists()
        assert paths["dd"].exists() and paths["ee"].exists()

    def test_limits_compose(self, planted):
        cache, now, paths = planted
        # Age alone would keep 4 x 50 = 200 bytes; the byte budget then
        # trims the oldest survivors too.
        result = gc_cache(cache, max_age_s=450.0, max_bytes=100, now=now)
        assert result.removed_entries == 3
        assert paths["dd"].exists() and paths["ee"].exists()

    def test_corrupt_quarantine_is_preserved(self, tmp_path):
        cache = SimCache(tmp_path, enabled=True)
        now = 1_000_000.0
        _plant(tmp_path, "aa11", mtime=now - 500)
        corrupt = tmp_path / "aa" / "aa11.json.corrupt"
        corrupt.write_bytes(b"forensics")
        os.utime(corrupt, (now - 900, now - 900))
        result = gc_cache(cache, max_age_s=10.0, now=now)
        assert result.removed_entries == 1
        assert corrupt.exists()
        # The shard still holds the quarantine file, so it survives too.
        assert corrupt.parent.is_dir()

    def test_emptied_shards_are_pruned(self, planted):
        cache, now, paths = planted
        gc_cache(cache, max_age_s=10.0, now=now)
        for path in paths.values():
            assert not path.parent.exists()
        # Stats over the emptied cache still work.
        stats = collect_stats(cache)
        assert stats.entries == 0

    def test_result_matches_collect_stats(self, planted):
        cache, now, _ = planted
        result = gc_cache(cache, max_bytes=120, now=now)
        stats = collect_stats(cache)
        assert stats.entries == result.kept_entries
        assert stats.total_bytes == result.kept_bytes


class TestParseHelpers:
    @pytest.mark.parametrize(
        "text,expected",
        [("512", 512), ("4K", 4096), ("2M", 2 << 20), ("1G", 1 << 30),
         ("1.5K", 1536), ("0", 0)],
    )
    def test_parse_size(self, text, expected):
        assert _parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "12Q", "abc", "-1"])
    def test_parse_size_rejects(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size(bad)

    @pytest.mark.parametrize(
        "text,expected",
        [("90", 90.0), ("45m", 2700.0), ("12h", 43200.0), ("30d", 2_592_000.0),
         ("2w", 1_209_600.0)],
    )
    def test_parse_age(self, text, expected):
        assert _parse_age(text) == expected

    @pytest.mark.parametrize("bad", ["", "1y", "soon", "-5m"])
    def test_parse_age_rejects(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_age(bad)


class TestCacheGcCli:
    @pytest.fixture(autouse=True)
    def _scoped_cache(self, tmp_path):
        configure_cache(cache_dir=tmp_path, enabled=True)
        yield tmp_path
        configure_cache(enabled=True)

    def test_requires_a_limit(self, capsys):
        assert main(["cache", "gc"]) == 2
        assert "--max-bytes and/or --max-age" in capsys.readouterr().err

    def test_evicts_and_reports(self, _scoped_cache, capsys):
        tmp_path = _scoped_cache
        now = 1_000_000.0
        _plant(tmp_path, "aa11", mtime=now - 500)
        _plant(tmp_path, "bb22", mtime=now - 100)
        assert main(["cache", "gc", "--max-bytes", "60"]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 entr(ies), 50 bytes" in out
        assert "kept 1 entr(ies), 50 bytes" in out

    def test_suffixed_arguments_parse(self, capsys):
        assert main(["cache", "gc", "--max-bytes", "1G", "--max-age", "30d"]) == 0
        assert "evicted 0 entr(ies)" in capsys.readouterr().out

    def test_disabled_cache_is_a_noop(self, capsys):
        configure_cache(enabled=False)
        assert main(["cache", "gc", "--max-age", "1s"]) == 0
        assert "disabled" in capsys.readouterr().out
