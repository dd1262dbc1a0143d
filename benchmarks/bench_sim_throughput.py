"""E-P1: raw simulator throughput (events/sec) and cache/parallel wins.

Guards the hot-loop fast path in ``repro.sim``: a regression in the
event loop, MSHR bookkeeping, cache-array indexing or the per-admission
latency lookup shows up here as an events/sec drop long before it is
visible in the paper tables.
Also times the ``repro.perf`` layer itself: a warm content-addressed
cache must beat re-simulation by a wide margin, and the batch-stepping
fast path must beat the pure event engine on hit-heavy work.

``REPRO_BENCH_FLOOR`` overrides the events/sec floor (for slow or
heavily shared CI hosts).
"""

import os
import time

import numpy as np
import pytest

from conftest import pedantic_once

from repro.machines import get_machine
from repro.perf.cache import SimCache, cached_run_trace, digest_for
from repro.sim import SimConfig, run_trace
from repro.xmem.kernels import resident_trace, scatter_trace, throughput_trace

THREADS = 4
ACCESSES = 4000

#: Loose events/sec floor — well below healthy rates (82–87k on the
#: last ``BENCH_sim_throughput.json`` point, a shared 2-vCPU container),
#: but high enough to catch pathological event-loop slowdowns.
EVENTS_PER_SEC_FLOOR = int(os.environ.get("REPRO_BENCH_FLOOR", "30000"))

#: The batch-stepping acceptance bar: accesses/sec on the L1-resident
#: workload must improve by at least this factor over the event engine.
BATCH_SPEEDUP_FLOOR = 5.0

#: The batched-miss acceptance bar: wall-clock on the cold scatter
#: workload must improve by at least this factor.  A same-host ratio,
#: so host speed cancels out.
MISS_BATCH_SPEEDUP_FLOOR = 3.0

#: The scalar latency lookup (pure-Python ``bisect`` interpolation) must
#: beat the ``np.interp`` reference it replaced by this factor.  A
#: same-process ratio, so host speed cancels out.
LATENCY_LOOKUP_SPEEDUP_FLOOR = 4.0


def _inputs(machine_name):
    machine = get_machine(machine_name)
    trace = throughput_trace(
        threads=THREADS,
        accesses_per_thread=ACCESSES,
        line_bytes=machine.line_bytes,
        gap_cycles=10.0,
    )
    return trace, SimConfig(machine=machine, sim_cores=THREADS)


@pytest.mark.parametrize("machine_name", ["skl", "knl", "a64fx"])
def test_sim_event_throughput(benchmark, printed, machine_name):
    trace, config = _inputs(machine_name)
    stats = pedantic_once(benchmark, run_trace, trace, config)
    key = f"throughput-{machine_name}"
    if key not in printed:
        printed.add(key)
        print(
            f"\n{machine_name}: {stats.events_fired} events in "
            f"{stats.wall_s:.3f}s host wall = "
            f"{stats.events_per_sec() / 1e3:.0f}k events/s"
        )
    assert stats.events_fired > 0
    assert stats.wall_s > 0
    # Floor well below any observed rate; catches pathological slowdowns
    # (observed ~65k events/s on a busy single-core CI container).
    assert stats.events_per_sec() > EVENTS_PER_SEC_FLOOR


def test_sim_batch_speedup(benchmark, printed):
    """Batch-stepping fast path: >= 5x accesses/sec on hit-heavy work."""
    machine = get_machine("skl")
    trace = resident_trace(
        threads=THREADS,
        accesses_per_thread=40_000,
        line_bytes=machine.line_bytes,
    )
    event_cfg = SimConfig(machine=machine, sim_cores=THREADS, batch=False)
    batch_cfg = SimConfig(machine=machine, sim_cores=THREADS, batch=True)
    event_stats = run_trace(trace, event_cfg)
    batch_stats = pedantic_once(benchmark, run_trace, trace, batch_cfg)

    assert batch_stats.fingerprint() == event_stats.fingerprint()
    assert batch_stats.batch_accesses > 0.9 * batch_stats.issued_total()
    speedup = batch_stats.accesses_per_sec() / event_stats.accesses_per_sec()
    if "batch-speedup" not in printed:
        printed.add("batch-speedup")
        print(
            f"\nbatch fast path: {batch_stats.accesses_per_sec() / 1e6:.2f}M "
            f"acc/s vs event {event_stats.accesses_per_sec() / 1e6:.2f}M "
            f"acc/s = {speedup:.1f}x "
            f"({batch_stats.batch_accesses}/{batch_stats.issued_total()} "
            "batched)"
        )
    assert speedup >= BATCH_SPEEDUP_FLOOR


def test_sim_miss_batch_speedup(benchmark, printed):
    """Batched miss retirement: >= 3x on the cold scatter workload.

    On the scatter trace batching hit runs alone (``batch_miss=False``)
    retires ~0% of accesses: nearly every access misses to memory.
    With gaps above the loaded latency every fill drains before the
    next issue, so batched runs that hold misses retire the whole
    trace closed-form and the event engine fires a constant handful of
    handoff events instead of ~5 per access.
    """
    machine = get_machine("knl")
    trace = scatter_trace(
        threads=1,
        accesses_per_thread=20_000,
        line_bytes=machine.line_bytes,
    )
    common = dict(machine=machine, sim_cores=1, window_per_core=12, tlb_entries=0)
    event_stats = run_trace(trace, SimConfig(batch=False, **common))
    batch_stats = pedantic_once(
        benchmark, run_trace, trace, SimConfig(batch=True, **common)
    )

    assert batch_stats.fingerprint() == event_stats.fingerprint()
    assert batch_stats.batch_miss_accesses > 0.9 * batch_stats.issued_total()
    speedup = event_stats.wall_s / batch_stats.wall_s
    if "miss-batch-speedup" not in printed:
        printed.add("miss-batch-speedup")
        print(
            f"\nmiss batch fast path: {batch_stats.wall_s * 1e3:.0f} ms vs "
            f"event {event_stats.wall_s * 1e3:.0f} ms = {speedup:.1f}x "
            f"({batch_stats.batch_miss_accesses}/{batch_stats.issued_total()} "
            f"batched, events {event_stats.events_fired}->"
            f"{batch_stats.events_fired})"
        )
    assert speedup >= MISS_BATCH_SPEEDUP_FLOOR


def test_warm_cache_beats_resimulation(benchmark, printed, tmp_path):
    trace, config = _inputs("skl")
    cache = SimCache(tmp_path, enabled=True)
    cold = cached_run_trace(trace, config, cache=cache)  # populate

    replayed = pedantic_once(benchmark, cached_run_trace, trace, config, cache=cache)

    assert cache.counters.hits == 1
    assert replayed.fingerprint() == cold.fingerprint()
    replay_s = benchmark.stats.stats.mean
    if "cache-replay" not in printed:
        printed.add("cache-replay")
        print(
            f"\ncache replay {replay_s * 1e3:.1f} ms vs "
            f"simulation {cold.wall_s * 1e3:.1f} ms "
            f"({cold.wall_s / replay_s:.0f}x)"
        )
    # The acceptance bar is >= 2x; real replays are orders faster.
    assert replay_s < cold.wall_s / 2


def test_digest_cost_is_cheap_relative_to_simulation(benchmark):
    # Keying the cache (canonical JSON + SHA-256 over the whole trace)
    # must stay a small fraction of simulating the same trace
    # (~100 ms digest vs ~800 ms simulation for this 16k-access case).
    trace, config = _inputs("skl")
    digest = pedantic_once(benchmark, digest_for, trace, config)
    assert len(digest) == 64
    assert benchmark.stats.stats.mean < 0.4


def _numpy_latency_ns(model, utilization):
    """The curve lookup as written against numpy: the speed reference."""
    utils = np.array([p[0] for p in model.points])
    lats = np.array([p[1] for p in model.points])
    value = float(np.interp(min(utilization, 1.0), utils, lats))
    return float(min(max(value, lats[0]), lats[-1]))


def _best_times(lookups, utils, repeats=15):
    """Fastest pass of each lookup over ``utils``; passes interleaved so
    a burst of host noise hits both lookups alike."""
    best = [float("inf")] * len(lookups)
    for _ in range(repeats):
        for i, lookup in enumerate(lookups):
            start = time.perf_counter()
            for u in utils:
                lookup(u)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.mark.parametrize("machine_name", ["skl", "knl", "a64fx"])
def test_latency_lookup_speedup(printed, machine_name):
    """Per-admission latency lookup: >= 4x over the np.interp reference."""
    model = get_machine(machine_name).latency_model
    utils = np.random.default_rng(19).uniform(0.0, 1.0, 1000).tolist()
    assert [model.latency_ns(u) for u in utils] == [
        _numpy_latency_ns(model, u) for u in utils
    ]
    scalar_s, reference_s = _best_times(
        [model.latency_ns, lambda u: _numpy_latency_ns(model, u)], utils
    )
    speedup = reference_s / scalar_s
    key = f"latency-lookup-{machine_name}"
    if key not in printed:
        printed.add(key)
        print(
            f"\n{machine_name} latency lookup: {scalar_s * 1e3:.2f} us/call vs "
            f"np.interp {reference_s * 1e3:.2f} us/call = {speedup:.1f}x"
        )
    assert speedup >= LATENCY_LOOKUP_SPEEDUP_FLOOR
