"""Host-speed probe: scales measured host times to a reference host speed.

On a shared host the speed of one CPU swings by ±25% over seconds
(other tenants, frequency changes), so the median host time of the
same work differs by that much from run to run.  The slowdown hits all
CPU-bound Python code alike: a fixed probe kernel run between ops
slows in step with the op (correlation 0.7 per op), and dividing by it
shrinks the spread of 15-second medians from 24% to 5%.

So every host time the benchmark reports is *normalized*: measured
seconds × ``REFERENCE_S`` / (probe time around the measurement).  The
result is in seconds on a host where the probe takes ``REFERENCE_S``.
The probe is benchmark code, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

import numpy as np

#: Probe time, in seconds, of the reference host normalized times refer to.
REFERENCE_S = 0.003

#: Probe again before an op once this much time passed since the last probe.
PROBE_EVERY_S = 0.1

_clock = time.perf_counter


def _kernel() -> int:
    """Heap, dict and small-numpy work, like the simulator's inner loops."""
    heap: list = []
    tally: dict = {}
    for i in range(2500):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        tally[i % 97] = tally.get(i % 97, 0) + i
    while heap:
        heapq.heappop(heap)
    a = np.arange(2000)
    total = 0
    for i in range(120):
        total += int(a[i : i + 10].sum())
    return total + len(tally)


class HostSpeed:
    """Probe samples taken during one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.last_end = float("-inf")

    def probe(self) -> int:
        """Time the kernel (best of two, collector off); return the sample index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                start = _clock()
                _kernel()
                best = min(best, _clock() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(best)
        self.last_end = _clock()
        return len(self.samples) - 1

    def maybe_probe(self) -> int:
        """Probe if the last probe is older than ``PROBE_EVERY_S``."""
        if _clock() - self.last_end >= PROBE_EVERY_S or not self.samples:
            return self.probe()
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Factor turning host seconds measured between two probes into
        reference seconds."""
        local = 0.5 * (self.samples[before] + self.samples[after])
        return REFERENCE_S / local
