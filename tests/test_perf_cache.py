"""Content-addressed sim cache: key stability, corruption, equivalence."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
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
        ("skl", "plain"): "31d21d2c715fedb565aeef5b9c8db7de6338ee492601f619dcdb8db5f3a9c1fd",
        ("skl", "tlb-nopf-nobatch"): "07b46f82a46b1e7ac698039e5a788a6ffdf68a725b59574d343452d11c1183c7",
        ("knl", "plain"): "ae272212b63b7b6c923c98679e58e264cea31b257747bb8694e3a18cb0976f8c",
        ("knl", "tlb-nopf-nobatch"): "578510b2c4dbf8737979922207b98926ce9021b92b8aa2d8aeca9e0dff0fc3fd",
        ("a64fx", "plain"): "f0ca9d06c16a8e5fa8c44c3ae3c4cfd1ac370524c6c464bce69670ac5fd1dca5",
        ("a64fx", "tlb-nopf-nobatch"): "580bdfdf60df6bfdfdd1442c263057a9ce481ba3e711924c494623a58d08be4a",
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
