"""Serial, parallel, and cached execution must be bit-identical.

The perf layer (``repro.perf``) is pure plumbing: ``fan_out`` may change
*where* a simulation runs and the cache may change *whether* it runs,
but neither is allowed to change a single observable number.  These
tests pin that contract per machine (SKL, KNL, A64FX) via
``SimStats.fingerprint()``, which hashes every semantic field.
"""

from __future__ import annotations

import pytest

from repro.machines import get_machine
from repro.perf import fan_out
from repro.perf.cache import SimCache, cached_run_trace, get_cache
from repro.sim import SimConfig, run_trace
from repro.xmem.kernels import throughput_trace
from repro.xmem.runner import XMemConfig, characterize_machine

MACHINES = ("skl", "knl", "a64fx")
ACCESSES = 400


@pytest.fixture(autouse=True)
def _fault_free_baseline(monkeypatch):
    """This file asserts exact hit/miss counts: park any ambient
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


def _case_inputs(machine_name):
    machine = get_machine(machine_name)
    trace = throughput_trace(
        threads=2,
        accesses_per_thread=ACCESSES,
        line_bytes=machine.line_bytes,
        gap_cycles=12.0,
    )
    return trace, SimConfig(machine=machine, sim_cores=2)


def _fingerprint_case(machine_name):
    """Worker for fan_out: simulate one machine's case, return observables."""
    trace, config = _case_inputs(machine_name)
    stats = cached_run_trace(trace, config)
    return stats.fingerprint()


@pytest.fixture(scope="module")
def baselines():
    """Serial, uncached ground truth per machine."""
    return {
        name: run_trace(*_case_inputs(name)).fingerprint() for name in MACHINES
    }


class TestParallelEquivalence:
    def test_serial_fan_out_matches_baseline(self, baselines):
        got = fan_out(_fingerprint_case, MACHINES, jobs=1)
        assert got == [baselines[name] for name in MACHINES]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_fan_out_matches_baseline(self, baselines, jobs):
        got = fan_out(_fingerprint_case, MACHINES, jobs=jobs)
        assert got == [baselines[name] for name in MACHINES]


class TestCacheEquivalence:
    @pytest.mark.parametrize("machine_name", MACHINES)
    def test_cache_hit_matches_serial_uncached(
        self, tmp_path, machine_name, baselines
    ):
        trace, config = _case_inputs(machine_name)
        cache = SimCache(tmp_path, enabled=True)
        stored = cached_run_trace(trace, config, cache=cache)
        replayed = cached_run_trace(trace, config, cache=cache)
        assert cache.counters.hits == 1
        assert stored.fingerprint() == baselines[machine_name]
        assert replayed.fingerprint() == baselines[machine_name]

    def test_warm_cache_runs_zero_simulations(self):
        # Against the session-level cache (the one fan_out workers share):
        # after a first pass, a second identical pass must be all hits.
        for name in MACHINES:
            cached_run_trace(*_case_inputs(name))
        before = get_cache().counters.snapshot()
        for name in MACHINES:
            cached_run_trace(*_case_inputs(name))
        delta = get_cache().counters.diff(before)
        assert delta.misses == 0
        assert delta.hits == len(MACHINES)


class TestCharacterizeEquivalence:
    def test_profile_identical_across_worker_counts(self):
        machine = get_machine("skl")
        config = XMemConfig(levels=3, accesses_per_thread=300)
        serial = characterize_machine(machine, config, jobs=1)
        parallel = characterize_machine(machine, config, jobs=2)
        assert serial.points == parallel.points
        assert serial.source == parallel.source
