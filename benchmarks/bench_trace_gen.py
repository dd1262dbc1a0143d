"""E-P2: columnar trace layer — generation + digest speedup.

Guards the tentpole claim of the structure-of-arrays trace layer: the
vectorized generators plus the zero-copy array digest must beat the
legacy pure-Python path (per-``Access`` object construction plus a
canonical-JSON digest) by at least 5x end to end.  The legacy path is
reproduced inline below, byte-for-byte equivalent in *shape* to the
pre-columnar code (same statistical structure, same per-access JSON
canonical form), so the comparison stays honest as the live code
evolves.
"""

import hashlib
import json
import random
import time

import numpy as np

from conftest import pedantic_once

from repro.sim.coltrace import ColumnarThreadTrace, ColumnarTrace, trace_digest
from repro.sim.trace import Access, AccessKind
from repro.workloads.generators import random_updates, spawn_thread_generator

THREADS = 4
ACCESSES = 50_000
LINE = 64
SPEEDUP_FLOOR = 5.0


# -- legacy baseline (the pre-columnar implementation, kept inline) -------------


def _legacy_random_updates(count, line_bytes, rng, *, gap_cycles=2.0,
                           write_fraction=0.5, region_bytes=128 * 1024 * 1024):
    """The old per-object generator loop: two RNG calls + one Access each."""
    lines = region_bytes // line_bytes
    targets = [rng.randrange(lines) * line_bytes for _ in range(count)]
    out = []
    for addr in targets:
        write = rng.random() < write_fraction
        kind = AccessKind.STORE if write else AccessKind.LOAD
        out.append(Access(addr, kind, gap_cycles))
    return out


def _legacy_digest(threads, *, routine, line_bytes):
    """The old cache key: canonical JSON over every access, then SHA-256.

    ``threads`` holds one tuple of ``Access`` records per thread, ids 0..n-1.
    """
    payload = {
        "routine": routine,
        "line_bytes": line_bytes,
        "threads": [
            [tid, [[a.addr, a.kind.value, a.gap_cycles] for a in accesses]]
            for tid, accesses in enumerate(threads)
        ],
    }
    doc = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _legacy_generate_and_digest(seed=12345):
    rng = random.Random(seed)
    threads = []
    for t in range(THREADS):
        child = random.Random(rng.randrange(2**31))
        threads.append(tuple(_legacy_random_updates(ACCESSES, LINE, child)))
    return _legacy_digest(threads, routine="bench", line_bytes=LINE)


# -- columnar path (the live implementation) ------------------------------------


def _columnar_generate_and_digest(seed=12345):
    rng = random.Random(seed)
    threads = []
    for t in range(THREADS):
        cols = random_updates(ACCESSES, LINE, spawn_thread_generator(rng))
        threads.append(ColumnarThreadTrace.from_columns(t, cols))
    trace = ColumnarTrace(tuple(threads), routine="bench", line_bytes=LINE)
    return trace_digest(trace)


def _best_of(func, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_generation_beats_legacy(benchmark, printed):
    legacy_s = _best_of(_legacy_generate_and_digest)
    digest = pedantic_once(benchmark, _columnar_generate_and_digest)
    columnar_s = benchmark.stats.stats.mean
    speedup = legacy_s / columnar_s
    if "trace-gen" not in printed:
        printed.add("trace-gen")
        print(
            f"\ntrace gen+digest ({THREADS}x{ACCESSES} accesses): "
            f"legacy {legacy_s * 1e3:.1f} ms, "
            f"columnar {columnar_s * 1e3:.1f} ms = {speedup:.1f}x"
        )
    assert len(digest) == 64
    assert speedup >= SPEEDUP_FLOOR


def test_zero_copy_digest_scales(benchmark, printed):
    # Digest alone on an already-built columnar trace: hashing raw array
    # bytes should stay in the hundreds of MB/s even on shared CI boxes.
    rng = np.random.default_rng(7)
    n = 1_000_000
    thread = ColumnarThreadTrace(
        0,
        rng.integers(0, 2**40, size=n, dtype=np.uint64),
        rng.integers(0, 4, size=n, dtype=np.uint8),
        rng.random(n),
    )
    trace = ColumnarTrace((thread,), routine="digest-bench", line_bytes=64)
    digest = pedantic_once(benchmark, trace_digest, trace)
    mean_s = benchmark.stats.stats.mean
    nbytes = sum(
        t.addr.nbytes + t.kind.nbytes + t.gap_cycles.nbytes for t in trace.threads
    )
    if "digest-rate" not in printed:
        printed.add("digest-rate")
        print(
            f"\nzero-copy digest: {nbytes / 1e6:.0f} MB in {mean_s * 1e3:.1f} ms "
            f"= {nbytes / mean_s / 1e9:.1f} GB/s"
        )
    assert len(digest) == 64
    # 17 MB of arrays must digest in well under a second (observed ~20 ms).
    assert mean_s < 1.0
