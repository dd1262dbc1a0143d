"""Content-addressed sim cache: key stability, corruption, equivalence."""

from __future__ import annotations

import dataclasses
import json
import pickle
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.machines import get_machine
from repro.perf.cache import (
    SCHEMA_VERSION,
    SimCache,
    cached_run_trace,
    digest_for,
    stable_digest,
)
from repro.sim import SimConfig, run_trace, trace_from_addresses
from repro.sim.coltrace import trace_digest
from repro.xmem.kernels import throughput_trace


@pytest.fixture(autouse=True)
def _fault_free_baseline(monkeypatch):
    """This file asserts exact hit/miss behavior: park any ambient
    ``REPRO_FAULTS`` spec (CI fault leg) and restore it afterwards.
    Likewise pin unsanitized mode — sanitized runs bypass the cache by
    contract (docs/SANITIZER.md), which would zero every counter here."""
    import os

    from repro.resilience.faults import configure_faults

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    ambient = os.environ.get("REPRO_FAULTS")
    configure_faults(None)
    yield
    configure_faults(ambient)


@pytest.fixture
def skl_inputs(skl):
    trace = throughput_trace(
        threads=2,
        accesses_per_thread=300,
        line_bytes=skl.line_bytes,
        gap_cycles=20.0,
    )
    return trace, SimConfig(machine=skl, sim_cores=2)


class TestDigestStability:
    def test_dict_key_order_is_irrelevant(self):
        a = {"alpha": 1, "beta": [1, 2, {"x": 1.5, "y": 2.5}]}
        b = {"beta": [1, 2, {"y": 2.5, "x": 1.5}], "alpha": 1}
        assert stable_digest(a) == stable_digest(b)

    def test_value_changes_are_detected(self):
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_digest_is_deterministic_across_calls(self, skl_inputs):
        trace, config = skl_inputs
        assert digest_for(trace, config) == digest_for(trace, config)

    def test_rebuilt_identical_inputs_share_a_digest(self, skl):
        # Fresh (but equal) trace/config objects must hash identically:
        # content-addressing, not object identity.
        def build():
            trace = throughput_trace(
                threads=2,
                accesses_per_thread=100,
                line_bytes=skl.line_bytes,
                gap_cycles=8.0,
            )
            return trace, SimConfig(machine=get_machine("skl"), sim_cores=2)

        t1, c1 = build()
        t2, c2 = build()
        assert digest_for(t1, c1) == digest_for(t2, c2)

    #: ``digest_for`` of one throughput trace per paper machine and config
    #: variant.  These are the sim-cache file names: a change here re-keys
    #: every cached simulation, which only a ``SCHEMA_VERSION`` or version
    #: bump may do.
    PINNED = {
        ("skl", "plain"): "4338a45b2145a3ed089c97bce40fc14a987b46e59b037bf88149492b77ecb729",
        ("skl", "tlb-nopf-nobatch"): "df5f0856fe1f71162e9a92800864499eedc4bfb25e305baa89c02095b1b72874",
        ("knl", "plain"): "fa71c7c39f4afd5ca1f476f0c321b109177fe51c66efdef9e7da6c3071788258",
        ("knl", "tlb-nopf-nobatch"): "828664e1838f090d62960e1fe1df236e46f3152ab5895d5d595e57cd0575ed72",
        ("a64fx", "plain"): "3884e95738f66598d6bf3d79c46b0f149cf371ee382c3484e458aa3159aa63f3",
        ("a64fx", "tlb-nopf-nobatch"): "23ba1047520d07acc62ac5f6774420023eaacac5976448a41384d53160b62cf6",
    }
    VARIANTS = {
        "plain": {},
        "tlb-nopf-nobatch": {
            "tlb_entries": 64,
            "hw_prefetch": False,
            "batch": False,
            "batch_miss": False,
        },
    }

    @pytest.mark.parametrize("machine, variant", sorted(PINNED))
    def test_digest_pinned(self, machine, variant):
        spec = get_machine(machine)
        trace = throughput_trace(
            threads=2,
            accesses_per_thread=300,
            line_bytes=spec.line_bytes,
            gap_cycles=20.0,
        )
        config = SimConfig(machine=spec, sim_cores=2, **self.VARIANTS[variant])
        assert digest_for(trace, config) == self.PINNED[machine, variant]

    @pytest.mark.parametrize(
        "override",
        [
            {"sim_cores": 1},
            {"window_per_core": 8},
            {"hw_prefetch": False},
            {"batch_miss": False},
            {"tlb_entries": 64},
        ],
    )
    def test_any_config_parameter_changes_digest(self, skl_inputs, override):
        trace, config = skl_inputs
        changed = dataclasses.replace(config, **override)
        assert digest_for(trace, config) != digest_for(trace, changed)

    def test_machine_physical_parameter_changes_digest(self, skl_inputs, skl):
        trace, config = skl_inputs
        faster = dataclasses.replace(config, machine=skl.with_frequency(4.0e9))
        assert digest_for(trace, config) != digest_for(trace, faster)

    def test_trace_contents_change_digest(self, skl):
        config = SimConfig(machine=skl, sim_cores=1)
        t1 = trace_from_addresses([[0, 64, 128]], line_bytes=skl.line_bytes)
        t2 = trace_from_addresses([[0, 64, 192]], line_bytes=skl.line_bytes)
        assert digest_for(t1, config) != digest_for(t2, config)

    def test_gap_cycles_change_digest(self, skl):
        config = SimConfig(machine=skl, sim_cores=1)
        t1 = trace_from_addresses([[0, 64]], line_bytes=skl.line_bytes, gap_cycles=1.0)
        t2 = trace_from_addresses([[0, 64]], line_bytes=skl.line_bytes, gap_cycles=2.0)
        assert digest_for(t1, config) != digest_for(t2, config)


_MEMO_TRACE = trace_from_addresses(
    [[0, 64, 4096], [1 << 20]], routine="memo", line_bytes=64, gap_cycles=3.0
)


@st.composite
def _sim_configs(draw):
    """A valid ``SimConfig`` on a fresh paper machine, as (name, kwargs)."""
    name = draw(st.sampled_from(["skl", "knl", "a64fx"]))
    smt_ways = get_machine(name).smt_ways
    threads = draw(st.integers(1, smt_ways))
    kwargs = {
        "sim_cores": draw(st.integers(1, 4)),
        "threads_per_core": threads,
        "window_per_core": draw(st.integers(threads, 48)),
        "hw_prefetch": draw(st.booleans()),
        "tlb_entries": draw(st.sampled_from([0, 16, 64])),
        "batch": draw(st.booleans()),
        "batch_miss": draw(st.booleans()),
    }
    return name, kwargs


class TestCanonicalMemo:
    """Machines and configs keep their canonical form per instance; the
    memo must give exactly the digest a fresh walk of the fields gives."""

    @settings(max_examples=60, deadline=None)
    @given(_sim_configs())
    def test_memoized_digest_is_exact(self, drawn):
        name, kwargs = drawn
        config = SimConfig(machine=get_machine(name), **kwargs)
        first = digest_for(_MEMO_TRACE, config)
        assert digest_for(_MEMO_TRACE, config) == first
        copy = dataclasses.replace(config, machine=get_machine(name))
        assert digest_for(_MEMO_TRACE, copy) == first
        # The memoized form serializes like the plain field dict, which
        # no memo ever serves (JSON tells 4 from 4.0; == would not).
        assert stable_digest(config) == stable_digest(dataclasses.asdict(config))

    @settings(max_examples=40, deadline=None)
    @given(
        _sim_configs(),
        st.sampled_from(["frequency_hz", "peak_gflops"]),
        st.integers(1, 10**10),
        st.booleans(),
    )
    def test_int_and_float_twins_digest_differently(
        self, drawn, field_name, value, int_first
    ):
        name, kwargs = drawn
        twins = [
            SimConfig(
                machine=dataclasses.replace(get_machine(name), **{field_name: v}),
                **kwargs,
            )
            for v in (value, float(value))
        ]
        assert twins[0] == twins[1]  # equal by value ...
        order = twins if int_first else twins[::-1]
        digests = [digest_for(_MEMO_TRACE, c) for c in order]
        assert digests[0] != digests[1]  # ... but never one cache entry

    @settings(max_examples=60, deadline=None)
    @given(_sim_configs(), st.sampled_from([50_000_000, 1, 10**12]))
    def test_digest_for_hashes_the_stable_digest_document(self, drawn, max_events):
        # digest_for splices the JSON a config keeps after its first
        # digest into its document: the bytes must stay stable_digest's,
        # on the first lookup and on warm ones.
        name, kwargs = drawn
        config = SimConfig(machine=get_machine(name), **kwargs)
        expected = stable_digest(
            {
                "schema": SCHEMA_VERSION,
                "repro_version": __version__,
                "config": dataclasses.replace(config),
                "trace": trace_digest(_MEMO_TRACE),
                "max_events": max_events,
            }
        )
        for _ in range(2):
            assert digest_for(_MEMO_TRACE, config, max_events=max_events) == expected

    def test_pickled_config_keeps_its_digest(self, skl_inputs):
        trace, config = skl_inputs
        digest = digest_for(trace, config)
        assert digest_for(trace, pickle.loads(pickle.dumps(config))) == digest


class TestSimCacheStore:
    def test_miss_then_hit_roundtrip(self, tmp_path, skl_inputs):
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=True)
        first = cached_run_trace(trace, config, cache=cache)
        second = cached_run_trace(trace, config, cache=cache)
        assert cache.counters.misses == 1
        assert cache.counters.hits == 1
        assert cache.counters.stores == 1
        assert first.fingerprint() == second.fingerprint()

    def test_hit_equals_uncached_run_exactly(self, tmp_path, skl_inputs):
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=True)
        cached_run_trace(trace, config, cache=cache)  # populate
        replayed = cached_run_trace(trace, config, cache=cache)
        fresh = run_trace(trace, config)
        assert replayed.fingerprint() == fresh.fingerprint()
        # Spot-check the numbers behind the fingerprint.
        assert replayed.elapsed_ns == fresh.elapsed_ns
        assert replayed.memory.latency_sum_ns == fresh.memory.latency_sum_ns
        assert replayed.avg_occupancy(1) == fresh.avg_occupancy(1)
        assert replayed.avg_occupancy(2) == fresh.avg_occupancy(2)
        assert replayed.events_fired == fresh.events_fired

    def test_corrupt_entry_is_a_warned_miss_not_a_crash(
        self, tmp_path, skl_inputs
    ):
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=True)
        baseline = cached_run_trace(trace, config, cache=cache)
        digest = digest_for(trace, config)
        path = cache.path_for(digest)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])  # truncate
        with pytest.warns(UserWarning, match="corrupt"):
            recovered = cached_run_trace(trace, config, cache=cache)
        assert recovered.fingerprint() == baseline.fingerprint()
        # The re-simulated result was stored back and is loadable again.
        assert json.loads(path.read_text())["digest"] == digest

    def test_wrong_schema_entry_is_a_miss(self, tmp_path, skl_inputs):
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=True)
        cached_run_trace(trace, config, cache=cache)
        digest = digest_for(trace, config)
        path = cache.path_for(digest)
        doc = json.loads(path.read_text())
        doc["schema"] = 9999
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning):
            cached_run_trace(trace, config, cache=cache)
        assert cache.counters.misses == 2  # initial + schema mismatch

    def test_disabled_cache_never_touches_disk(self, tmp_path, skl_inputs):
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=False)
        cached_run_trace(trace, config, cache=cache)
        cached_run_trace(trace, config, cache=cache)
        assert list(tmp_path.iterdir()) == []
        assert cache.counters.hits == 0
        assert cache.counters.stores == 0

    def test_stats_dict_roundtrip_is_exact(self, skl_inputs):
        trace, config = skl_inputs
        stats = run_trace(trace, config)
        from repro.sim.stats import SimStats

        rebuilt = SimStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        )
        assert rebuilt.fingerprint() == stats.fingerprint()
        assert rebuilt.wall_s == stats.wall_s


class TestQuarantine:
    def test_corrupt_entry_is_quarantined_not_deleted(
        self, tmp_path, skl_inputs
    ):
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=True)
        cached_run_trace(trace, config, cache=cache)
        digest = digest_for(trace, config)
        path = cache.path_for(digest)
        damaged = b"{ this is not json"
        path.write_bytes(damaged)
        with pytest.warns(UserWarning, match="quarantined"):
            cache.load(digest)
        quarantined = path.with_suffix(".corrupt")
        assert quarantined.exists()
        # The damaged bytes survive for forensics...
        assert quarantined.read_bytes() == damaged
        # ...and the original path no longer satisfies lookups.
        assert not path.exists()

    def test_quarantined_entry_is_resimulated_and_restored(
        self, tmp_path, skl_inputs
    ):
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=True)
        baseline = cached_run_trace(trace, config, cache=cache)
        digest = digest_for(trace, config)
        path = cache.path_for(digest)
        path.write_text("garbage")
        with pytest.warns(UserWarning, match="corrupt"):
            recovered = cached_run_trace(trace, config, cache=cache)
        assert recovered.fingerprint() == baseline.fingerprint()
        # A fresh, valid entry exists again alongside the quarantined one.
        assert json.loads(path.read_text())["digest"] == digest
        assert path.with_suffix(".corrupt").exists()

    def test_injected_corruption_recovers_bit_identically(
        self, tmp_path, skl_inputs
    ):
        # cache_corrupt damages each entry right after store; the next
        # lookup must quarantine it, re-simulate, and agree exactly with
        # the clean result.
        from repro.resilience.faults import configure_faults

        trace, config = skl_inputs
        clean_cache = SimCache(tmp_path / "clean", enabled=True)
        baseline = cached_run_trace(trace, config, cache=clean_cache)
        try:
            configure_faults("cache_corrupt:p=1,seed=3")
            cache = SimCache(tmp_path / "faulty", enabled=True)
            first = cached_run_trace(trace, config, cache=cache)
            with pytest.warns(UserWarning, match="corrupt"):
                second = cached_run_trace(trace, config, cache=cache)
        finally:
            configure_faults(None)
        assert first.fingerprint() == baseline.fingerprint()
        assert second.fingerprint() == baseline.fingerprint()

    def test_digit_flip_in_stats_is_a_warned_miss(self, tmp_path, skl_inputs):
        # Valid JSON, wrong number: only the stats checksum can tell.
        trace, config = skl_inputs
        cache = SimCache(tmp_path, enabled=True)
        baseline = cached_run_trace(trace, config, cache=cache)
        path = cache.path_for(digest_for(trace, config))
        raw = path.read_bytes()
        at = raw.index(b'"elapsed_ns": ') + len(b'"elapsed_ns": ')
        flipped = b"9" if raw[at : at + 1] != b"9" else b"1"
        path.write_bytes(raw[:at] + flipped + raw[at + 1 :])
        assert json.loads(path.read_bytes())["stats"] != baseline.to_dict()
        with pytest.warns(UserWarning, match="checksum"):
            recovered = cached_run_trace(trace, config, cache=cache)
        assert recovered.fingerprint() == baseline.fingerprint()
        assert path.with_suffix(".corrupt").exists()


@pytest.fixture
def clean_entry(tmp_path):
    """One stored entry for a small skl run: (trace, config, bytes, stats).

    Function-scoped so that it runs after ``_fault_free_baseline``.
    """
    skl = get_machine("skl")
    trace = throughput_trace(
        threads=1, accesses_per_thread=120, line_bytes=skl.line_bytes, gap_cycles=20.0
    )
    config = SimConfig(machine=skl, sim_cores=1)
    cache = SimCache(tmp_path, enabled=True)
    stats = cached_run_trace(trace, config, cache=cache)
    raw = cache.path_for(digest_for(trace, config)).read_bytes()
    return trace, config, raw, stats


@st.composite
def _damage(draw, raw: bytes):
    """``raw`` truncated, with one byte changed, or with a range overwritten."""
    kind = draw(st.sampled_from(["truncate", "byte", "range"]))
    at = draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    if kind == "byte":
        # Digits are drawn often: a digit swapped for a digit is valid JSON.
        value = draw(st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255)))
        if value == raw[at]:
            value ^= 1
        return raw[:at] + bytes([value]) + raw[at + 1 :]
    patch = draw(st.binary(min_size=1, max_size=64))[: len(raw) - at]
    return raw[:at] + patch + raw[at + len(patch) :]


def _decoded_stats(raw: bytes):
    try:
        return json.loads(raw)["stats"]
    except (ValueError, KeyError, TypeError):
        return None


class TestRandomDamage:
    """Any damage to a stored entry: never a wrong result, and a change
    to the stats it decodes to is always a warned, quarantined miss."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_damaged_entry_never_replays_wrong_stats(self, clean_entry, data):
        trace, config, raw, clean = clean_entry
        damaged = data.draw(_damage(raw))
        with tempfile.TemporaryDirectory() as tmp:
            cache = SimCache(tmp, enabled=True)
            path = cache.path_for(digest_for(trace, config))
            path.parent.mkdir(parents=True)
            path.write_bytes(damaged)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = cached_run_trace(trace, config, cache=cache)
            assert result.fingerprint() == clean.fingerprint()
            if _decoded_stats(damaged) != clean.to_dict():
                assert cache.counters.misses == 1
                assert any("corrupt" in str(w.message) for w in caught)
                assert path.with_suffix(".corrupt").read_bytes() == damaged
