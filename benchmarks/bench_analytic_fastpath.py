"""E-P3: the ``--fast`` path vs event-engine simulation.

Guards the headline claim of the ``--fast`` mode: a probe-calibrated
characterize — the resampled profile *plus* the operating-point solves
over the probe profile for every paper workload — must answer at least :data:`FAST_SPEEDUP_FLOOR` times
faster than the uncached event-engine X-Mem sweep it replaces.  The
floor is a same-host ratio, so host speed cancels out and no
environment variable overrides it.  ``BENCH_analytic_speedup.json``
is frozen history; the repository benchmark's ``analytic`` workload,
recorded in ``BENCH_perfbench.json`` by
``benchmarks/record_trajectory.py``, tracks the fast path's cost.
"""

import os
import time

from conftest import pedantic_once

from repro.machines import get_machine
from repro.perfmodel.queueing import (
    analytic_profile,
    calibrate_from_probes,
    solve_operating_point_fast,
)
from repro.workloads import ALL_WORKLOADS
from repro.xmem.runner import XMemConfig, XMemRunner

#: Acceptance bar: analytic --fast must beat the event engine by at
#: least this factor.  Real measurements land around 5000x.
FAST_SPEEDUP_FLOOR = 100.0

MACHINE = "skl"
SWEEP = XMemConfig(levels=6, accesses_per_thread=1500, batch=False)


def _fast_answer(machine, probes):
    """One complete --fast characterize+advise answer (pure algebra)."""
    profile = analytic_profile(machine, probes)
    points = [
        solve_operating_point_fast(
            machine,
            w.base_state(machine).demand_mlp,
            w.base_state(machine).binding_level,
            curve=probes,
        )
        for w in ALL_WORKLOADS
        if machine.name in w.machines()
    ]
    return profile, points


def test_fast_characterize_speedup(benchmark, printed):
    """Analytic --fast answers >= 100x faster than the event engine."""
    machine = get_machine(MACHINE)
    probes = calibrate_from_probes(
        machine,
        sim_cores=SWEEP.sim_cores,
        accesses_per_thread=SWEEP.accesses_per_thread,
    )

    profile, points = pedantic_once(benchmark, _fast_answer, machine, probes)
    fast_s = benchmark.stats.stats.mean

    # Time the event engine cache-inert: a warm global cache would make
    # the "simulation" side an unfairly fast JSON replay.
    from repro.perf.cache import configure_cache

    saved = os.environ.get("REPRO_CACHE")
    configure_cache(enabled=False)
    try:
        runner = XMemRunner(machine, SWEEP)
        start = time.perf_counter()
        measurements = runner.sweep()
        sim_s = time.perf_counter() - start
    finally:
        # Restore the pre-test environment, then rebuild the global
        # handle from it (configure_cache with no args re-reads env).
        if saved is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = saved
        configure_cache()

    assert len(profile.points) >= 2
    assert all(p.bandwidth_bytes > 0 and p.latency_ns > 0 for p in points)
    assert measurements
    speedup = sim_s / fast_s if fast_s > 0 else float("inf")
    if "analytic-speedup" not in printed:
        printed.add("analytic-speedup")
        print(
            f"\nanalytic fast path: {fast_s * 1e3:.2f} ms vs event-engine "
            f"sweep {sim_s * 1e3:.0f} ms = {speedup:.0f}x "
            f"(floor {FAST_SPEEDUP_FLOOR:.0f}x)"
        )
    assert speedup >= FAST_SPEEDUP_FLOOR
