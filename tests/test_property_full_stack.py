"""Combination stress: every simulator feature on at once, invariants hold.

Hypothesis drives random traces through the hierarchy with SMT, the
TLB, hardware prefetch, and software prefetch hints all enabled
simultaneously — the configurations unit tests exercise only in
isolation.  The invariants: runs terminate, every access retires,
occupancies respect capacities, byte accounting balances, and Little's
law holds at the memory controller.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import get_machine
from repro.sim import (
    AccessColumns,
    AccessKind,
    ColumnarTrace,
    SimConfig,
    columnar_trace,
    run_trace,
)
from repro.sim.coltrace import KIND_CODES

SKL = get_machine("skl")


def _mixed_trace(seed: int, n: int, threads: int, swpf_share: float) -> ColumnarTrace:
    rng = random.Random(seed)
    runs = []
    for t in range(threads):
        accesses = []
        stream_base = (t + 1) << 28
        stream_off = 0
        for i in range(n):
            roll = rng.random()
            if roll < swpf_share:
                kind = AccessKind.SWPF_L2 if rng.random() < 0.5 else AccessKind.SWPF_L1
                addr = rng.randrange(1 << 22) * 64
                accesses.append((addr, kind, 1.0))
            elif roll < 0.55:
                addr = rng.randrange(1 << 22) * 64
                kind = AccessKind.STORE if rng.random() < 0.3 else AccessKind.LOAD
                accesses.append((addr, kind, rng.choice([1.0, 2.0, 8.0])))
            else:
                accesses.append((stream_base + stream_off, AccessKind.LOAD, 2.0))
                stream_off += 8
        addrs, kinds, gaps = zip(*accesses)
        codes = [KIND_CODES[k] for k in kinds]
        runs.append(AccessColumns(np.array(addrs), np.array(codes), np.array(gaps)))
    return columnar_trace(runs, routine="stress", line_bytes=64)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(150, 600),
    threads_per_core=st.integers(1, 2),
    swpf_share=st.floats(0.0, 0.3),
    window=st.integers(2, 20),
    tlb_entries=st.sampled_from([0, 32, 128]),
)
def test_all_features_together(
    seed, n, threads_per_core, swpf_share, window, tlb_entries
):
    threads = 2 * threads_per_core
    trace = _mixed_trace(seed, n, threads, swpf_share)
    cfg = SimConfig(
        machine=SKL,
        sim_cores=2,
        threads_per_core=threads_per_core,
        window_per_core=max(window, threads_per_core),
        tlb_entries=tlb_entries,
    )
    stats = run_trace(trace, cfg)

    # Termination and retirement.
    assert all(core.finished for core in stats.cores)
    assert sum(core.issued_accesses for core in stats.cores) == trace.total_accesses

    # Capacity invariants.
    for tracker in stats.l1_occupancy:
        assert tracker.peak <= SKL.l1.mshrs
    for tracker in stats.l2_occupancy:
        assert tracker.peak <= SKL.l2.mshrs

    # Byte accounting balances at line granularity.
    assert stats.memory.total_bytes % 64 == 0
    assert stats.memory.requests * 64 == stats.memory.total_bytes

    # Little's law at the controller, whenever enough requests flowed.
    if stats.memory.latency_count > 30:
        assert stats.littles_law_check(2)["relative_error"] < 0.05
