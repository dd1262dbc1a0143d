"""Load-generator kernels for memory characterization.

X-Mem [4] measures a machine's loaded-latency profile by combining a
latency-sensitive pointer chase with throughput threads whose injection
rate is controlled "through inserted delays or through thread-level
parallelism" (paper Section IV).  These builders produce the equivalent
traces for the simulator:

* :func:`pointer_chase_trace` — dependent random accesses (window 1),
  the pure-latency probe;
* :func:`throughput_trace` — multi-stream unit-stride reads with a
  configurable per-access delay (the "inserted delays" knob) across a
  configurable number of threads (the "thread-level parallelism" knob).

Addresses are spread across disjoint regions per thread so the probe
and load threads never share cache lines.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import numpy as np

from ..errors import TraceError
from ..sim.coltrace import (
    ADDR_DTYPE,
    GAP_DTYPE,
    KIND_CODES,
    KIND_DTYPE,
    ColumnarThreadTrace,
    ColumnarTrace,
)
from ..sim.trace import AccessKind

#: Region size per stream; large enough that streams never wrap into cache.
_REGION_BYTES = 64 * 1024 * 1024


def pointer_chase_addresses(
    count: int, line_bytes: int, *, region_bytes: int = 256 * 1024 * 1024, seed: int = 7
) -> List[int]:
    """Random line-granular addresses emulating a dependent pointer chase."""
    if count <= 0:
        raise TraceError("count must be positive")
    rng = random.Random(seed)
    lines = region_bytes // line_bytes
    return [rng.randrange(lines) * line_bytes for _ in range(count)]


def pointer_chase_trace(
    count: int,
    line_bytes: int,
    *,
    thread_id: int = 0,
    seed: int = 7,
) -> ColumnarThreadTrace:
    """A single dependent-chain thread trace (gap 1 cycle, window 1 intent).

    The simulator enforces dependence by running this thread with a
    window of 1 (see :class:`repro.xmem.runner.XMemRunner`).
    """
    addr = np.array(pointer_chase_addresses(count, line_bytes, seed=seed), ADDR_DTYPE)
    kind = np.full(count, KIND_CODES[AccessKind.LOAD], dtype=KIND_DTYPE)
    gap = np.full(count, 1.0, dtype=GAP_DTYPE)
    return ColumnarThreadTrace(thread_id, addr, kind, gap)


def throughput_thread(
    thread_id: int,
    accesses_total: int,
    line_bytes: int,
    *,
    streams: int = 8,
    gap_cycles: float = 0.0,
    element_bytes: int = 0,
) -> ColumnarThreadTrace:
    """One load thread: ``streams`` unit-stride read streams, interleaved.

    ``gap_cycles`` is the inserted delay between consecutive accesses —
    X-Mem's load-control knob.  ``element_bytes`` of 0 means one access
    per line (maximum pressure); a positive value strides within lines.
    """
    if accesses_total <= 0 or streams <= 0:
        raise TraceError("accesses_total and streams must be positive")
    stride = element_bytes if element_bytes > 0 else line_bytes
    idx = np.arange(accesses_total, dtype=np.int64)
    stream = idx % streams
    step = idx // streams
    bases = (
        (thread_id * streams + stream) * _REGION_BYTES
        + stream * 128 * line_bytes
    )
    addr = (bases + step * stride).astype(ADDR_DTYPE)
    kind = np.full(accesses_total, KIND_CODES[AccessKind.LOAD], dtype=KIND_DTYPE)
    gap = np.full(accesses_total, gap_cycles, dtype=GAP_DTYPE)
    return ColumnarThreadTrace(thread_id, addr, kind, gap)


def resident_thread(
    thread_id: int,
    accesses_total: int,
    line_bytes: int,
    *,
    hot_lines: int = 384,
    gap_cycles: float = 6.0,
) -> ColumnarThreadTrace:
    """One thread looping over an L1-resident footprint.

    After one warm-up pass every access hits L1, which makes this the
    reference workload for the batch-stepping fast path (the event and
    batch engines must agree bit-for-bit while the batch path retires
    nearly the whole trace vectorized).  ``hot_lines`` must fit the
    target L1 for the "resident" premise to hold; the default suits a
    32 KiB / 64 B cache with room to spare.  Threads use disjoint
    regions, as elsewhere in this module.
    """
    if accesses_total <= 0 or hot_lines <= 0:
        raise TraceError("accesses_total and hot_lines must be positive")
    idx = np.arange(accesses_total, dtype=np.int64)
    base = thread_id * (1 << 36)
    addr = (base + (idx % hot_lines) * line_bytes).astype(ADDR_DTYPE)
    kind = np.full(accesses_total, KIND_CODES[AccessKind.LOAD], dtype=KIND_DTYPE)
    gap = np.full(accesses_total, gap_cycles, dtype=GAP_DTYPE)
    return ColumnarThreadTrace(thread_id, addr, kind, gap)


def resident_trace(
    *,
    threads: int,
    accesses_per_thread: int,
    line_bytes: int,
    hot_lines: int = 384,
    gap_cycles: float = 6.0,
    routine: str = "l1_resident",
) -> ColumnarTrace:
    """A multi-threaded L1-resident (all-hit after warm-up) workload."""
    if threads <= 0:
        raise TraceError("threads must be positive")
    return ColumnarTrace(
        threads=tuple(
            resident_thread(
                t,
                accesses_per_thread,
                line_bytes,
                hot_lines=hot_lines,
                gap_cycles=gap_cycles,
            )
            for t in range(threads)
        ),
        routine=routine,
        line_bytes=line_bytes,
    )


def scatter_thread(
    thread_id: int,
    accesses_total: int,
    line_bytes: int,
    *,
    footprint_lines: int = 1 << 22,
    gap_cycles: float = 400.0,
    seed: int = 11,
) -> ColumnarThreadTrace:
    """One thread of cold random loads with fill-drainable gaps.

    Nearly every access misses to memory (the footprint dwarfs any
    modeled cache) and the inserted delay exceeds the loaded memory
    latency, so each miss's fill drains before the next access issues.
    That is the regime the batched miss fast path retires closed-form
    (docs/PERFORMANCE.md): runs hand off cleanly because no fill
    outlives the next issue attempt.  Smaller gaps push the workload
    into the overlapped-MLP regime, which deliberately falls back to
    the event engine (``handoff`` fallback).
    """
    if accesses_total <= 0 or footprint_lines <= 0:
        raise TraceError("accesses_total and footprint_lines must be positive")
    rng = np.random.default_rng(seed + thread_id)
    base = thread_id * (1 << 40)
    addr = (
        base + rng.integers(0, footprint_lines, accesses_total) * line_bytes
    ).astype(ADDR_DTYPE)
    kind = np.full(accesses_total, KIND_CODES[AccessKind.LOAD], dtype=KIND_DTYPE)
    gap = np.full(accesses_total, gap_cycles, dtype=GAP_DTYPE)
    return ColumnarThreadTrace(thread_id, addr, kind, gap)


def scatter_trace(
    *,
    threads: int,
    accesses_per_thread: int,
    line_bytes: int,
    footprint_lines: int = 1 << 22,
    gap_cycles: float = 400.0,
    routine: str = "cold_scatter",
) -> ColumnarTrace:
    """A cold random-load (miss-heavy, drainable-gap) workload."""
    if threads <= 0:
        raise TraceError("threads must be positive")
    return ColumnarTrace(
        threads=tuple(
            scatter_thread(
                t,
                accesses_per_thread,
                line_bytes,
                footprint_lines=footprint_lines,
                gap_cycles=gap_cycles,
            )
            for t in range(threads)
        ),
        routine=routine,
        line_bytes=line_bytes,
    )


def throughput_trace(
    *,
    threads: int,
    accesses_per_thread: int,
    line_bytes: int,
    streams_per_thread: int = 8,
    gap_cycles: float = 0.0,
    routine: str = "xmem_load",
) -> ColumnarTrace:
    """A multi-threaded throughput workload at one load level."""
    if threads <= 0:
        raise TraceError("threads must be positive")
    return ColumnarTrace(
        threads=tuple(
            throughput_thread(
                t,
                accesses_per_thread,
                line_bytes,
                streams=streams_per_thread,
                gap_cycles=gap_cycles,
            )
            for t in range(threads)
        ),
        routine=routine,
        line_bytes=line_bytes,
    )


def gap_sweep(levels: int, *, max_gap_cycles: float = 400.0) -> Sequence[float]:
    """Geometric sweep of inserted delays from heavy load to near idle.

    Returns ``levels`` gap values ending at 0 (no delay = maximum load).
    """
    if levels < 2:
        raise TraceError("need at least two load levels")
    gaps = []
    g = max_gap_cycles
    for _ in range(levels - 1):
        gaps.append(g)
        g /= 2.2
    gaps.append(0.0)
    return gaps
