"""Simulation statistics: every observable the paper's method consumes.

The counters collected here are the simulator-side equivalents of the
hardware events in paper Table I and Section IV:

* per-level MSHR occupancy **time integrals** (so the time-average
  occupancy — the paper's ``n_avg`` ground truth — is
  ``integral / elapsed``),
* MSHR-full stall time at L1 and L2 (the paper validates ISx L2 software
  prefetching by watching stalls migrate from the L1 to the L2 MSHRQ on
  a cycle-level simulator),
* memory-controller bytes served, split demand/prefetch and read/write
  (bandwidth counters; the demand/prefetch split drives the paper's
  random-vs-streaming classification),
* per-request latency sums (so the simulator can report true average
  loaded latency, which real counters cannot — Section II),
* cache hit/miss counts per level, and core issue/stall accounting used
  by the TMA baseline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..units import ns
from typing import Any, Dict, List

#: SimStats fields excluded from :meth:`SimStats.fingerprint` — execution
#: artifacts that legitimately differ between bit-identical simulations:
#: wall-clock cost is a host property, and the engine event and in-place
#: wakeup counts / batch-stepped access counts / fallback tallies
#: describe *how* the run was executed (the batch fast path collapses
#: many per-access events into vectorized steps) rather than what the
#: simulated machine did.
_NON_SEMANTIC_FIELDS = (
    "wall_s",
    "events_fired",
    "wakeups_in_place",
    "batch_accesses",
    "batch_miss_accesses",
    "batch_fallbacks",
)


@dataclass(slots=True)
class OccupancyTracker:
    """Time-weighted occupancy accounting for one queue.

    Call :meth:`update` *before* changing the occupancy, passing the
    current time; the tracker integrates ``occupancy * dt`` between
    updates.
    """

    name: str
    capacity: int
    occupancy: int = 0
    integral_ns: float = 0.0
    last_update_ns: float = 0.0
    peak: int = 0
    full_time_ns: float = 0.0

    def update(self, now_ns: float) -> None:
        """Integrate occupancy up to ``now_ns``."""
        dt = now_ns - self.last_update_ns
        if dt < 0:
            raise ValueError(f"{self.name}: time went backwards ({dt} ns)")
        self.integral_ns += self.occupancy * dt
        if self.occupancy >= self.capacity:
            self.full_time_ns += dt
        self.last_update_ns = now_ns

    def add(self, now_ns: float, delta: int = 1) -> None:
        """Change occupancy by ``delta`` at time ``now_ns``."""
        # update() inlined.  MshrFile.allocate/release repeat this step
        # inline, and must stay bit-identical to it.
        dt = now_ns - self.last_update_ns
        if dt < 0:
            raise ValueError(f"{self.name}: time went backwards ({dt} ns)")
        occupancy = self.occupancy
        capacity = self.capacity
        self.integral_ns += occupancy * dt
        if occupancy >= capacity:
            self.full_time_ns += dt
        self.last_update_ns = now_ns
        occupancy += delta
        self.occupancy = occupancy
        if occupancy < 0:
            raise ValueError(f"{self.name}: occupancy went negative")
        if occupancy > capacity:
            raise ValueError(
                f"{self.name}: occupancy {occupancy} exceeds capacity {capacity}"
            )
        if occupancy > self.peak:
            self.peak = occupancy

    def add_batch(self, times_ns: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a time-sorted sequence of occupancy changes in one pass.

        Element-for-element equivalent to sequential :meth:`add` calls:
        the integral accumulates the same ``occupancy * dt`` terms
        through the same left-to-right chained float adds (``np.cumsum``
        performs sequential adds, unlike ``np.sum``'s pairwise tree), so
        the resulting ``integral_ns`` / ``full_time_ns`` / ``peak`` /
        ``occupancy`` are bit-identical to the scalar loop.  ``times_ns``
        must be nondecreasing; callers interleaving allocations and
        releases are responsible for merging them into event-engine
        firing order first.
        """
        n = len(times_ns)
        if n == 0:
            return
        dt = np.empty(n, dtype=np.float64)
        dt[0] = times_ns[0] - self.last_update_ns
        np.subtract(times_ns[1:], times_ns[:-1], out=dt[1:])
        if dt.min() < 0:
            raise ValueError(f"{self.name}: time went backwards in batch")
        occ_after = self.occupancy + np.cumsum(deltas)
        if occ_after.min() < 0:
            raise ValueError(f"{self.name}: occupancy went negative")
        top = int(occ_after.max())
        if top > self.capacity:
            raise ValueError(
                f"{self.name}: occupancy {top} exceeds capacity {self.capacity}"
            )
        occ_before = np.empty(n, dtype=np.int64)
        occ_before[0] = self.occupancy
        occ_before[1:] = occ_after[:-1]
        acc = np.empty(n + 1, dtype=np.float64)
        acc[0] = self.integral_ns
        np.multiply(occ_before, dt, out=acc[1:])
        self.integral_ns = float(np.cumsum(acc)[-1])
        full = occ_before >= self.capacity
        if full.any():
            full_dt = dt[full]
            facc = np.empty(len(full_dt) + 1, dtype=np.float64)
            facc[0] = self.full_time_ns
            facc[1:] = full_dt
            self.full_time_ns = float(np.cumsum(facc)[-1])
        self.occupancy = int(occ_after[-1])
        self.peak = max(self.peak, top)
        self.last_update_ns = float(times_ns[-1])

    @property
    def is_full(self) -> bool:
        """Occupancy is at capacity right now."""
        return self.occupancy >= self.capacity

    def average(self, elapsed_ns: float) -> float:
        """Time-average occupancy over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return self.integral_ns / elapsed_ns


@dataclass(slots=True)
class LevelStats:
    """Hit/miss and MSHR statistics for one cache level (aggregated)."""

    hits: int = 0
    misses: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    mshr_full_stalls: int = 0
    mshr_full_stall_ns: float = 0.0
    late_prefetch_hits: int = 0  # demand hit an in-flight prefetch MSHR

    @property
    def accesses(self) -> int:
        """Total demand lookups at this level."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Demand miss rate at this level."""
        total = self.accesses
        return self.misses / total if total else 0.0


@dataclass(slots=True)
class MemoryStats:
    """Memory-controller counters."""

    demand_read_bytes: float = 0.0
    demand_write_bytes: float = 0.0
    prefetch_bytes: float = 0.0
    requests: int = 0
    latency_sum_ns: float = 0.0
    latency_count: int = 0
    rejected_over_cap: int = 0

    @property
    def total_bytes(self) -> float:
        """All bytes moved at the memory controller."""
        return self.demand_read_bytes + self.demand_write_bytes + self.prefetch_bytes

    @property
    def avg_latency_ns(self) -> float:
        """Average loaded latency over all completed requests."""
        return self.latency_sum_ns / self.latency_count if self.latency_count else 0.0

    @property
    def prefetch_fraction(self) -> float:
        """Fraction of memory traffic generated by prefetches.

        This is the signal the paper's recipe uses to classify a routine
        as streaming (prefetcher covers it → L2 MSHRQ binds) versus
        random (prefetcher ineffective → L1 MSHRQ binds).
        """
        total = self.total_bytes
        return self.prefetch_bytes / total if total else 0.0


@dataclass(slots=True)
class CoreStats:
    """Per-core front-end accounting for the TMA baseline."""

    issued_accesses: int = 0
    compute_cycles: float = 0.0
    window_stall_ns: float = 0.0
    l1_mshr_stall_ns: float = 0.0
    finished: bool = False
    finish_time_ns: float = 0.0


@dataclass(slots=True)
class SimStats:
    """All observables from one simulation run."""

    routine: str = "kernel"
    elapsed_ns: float = 0.0
    l1: LevelStats = field(default_factory=LevelStats)
    l2: LevelStats = field(default_factory=LevelStats)
    memory: MemoryStats = field(default_factory=MemoryStats)
    cores: List[CoreStats] = field(default_factory=list)
    l1_occupancy: List[OccupancyTracker] = field(default_factory=list)
    l2_occupancy: List[OccupancyTracker] = field(default_factory=list)
    hw_prefetches_issued: int = 0
    sw_prefetches_issued: int = 0
    #: Engine events executed during the run.  An *execution* observable
    #: (excluded from :meth:`fingerprint`): the batch fast path performs
    #: the same physics with far fewer events.
    events_fired: int = 0
    #: Zero-delay wakeups the engine ran in place instead of firing as
    #: events (:meth:`repro.sim.engine.Engine.wake`); not counted in
    #: :attr:`events_fired`.  Execution observable, excluded from
    #: :meth:`fingerprint`.
    wakeups_in_place: int = 0
    #: Accesses retired through the batch-stepping fast path (execution
    #: observable, excluded from :meth:`fingerprint`; 0 on the pure
    #: event path).
    batch_accesses: int = 0
    #: Of :attr:`batch_accesses`, accesses retired through runs that
    #: contained misses (the vectorized MSHR/memory-controller fast
    #: path).  Execution observable, excluded from :meth:`fingerprint`.
    batch_miss_accesses: int = 0
    #: Reason -> count tally of why the batch fast path was disabled for
    #: the run, or why candidate runs fell back to the event engine
    #: (execution observable, excluded from :meth:`fingerprint`).  Empty
    #: when batching never declined; makes zero-batched-fraction runs
    #: diagnosable.
    batch_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Host wall-clock cost of the run in seconds (NOT a simulation
    #: observable: excluded from :meth:`fingerprint`).
    wall_s: float = 0.0

    # -- derived observables ---------------------------------------------------

    def finalize(self, now_ns: float) -> None:
        """Close all occupancy integrals at end of run."""
        self.elapsed_ns = now_ns
        for tracker in self.l1_occupancy + self.l2_occupancy:
            tracker.update(now_ns)

    def bandwidth_bytes_per_s(self) -> float:
        """Achieved memory bandwidth over the run."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.memory.total_bytes / ns(self.elapsed_ns)

    def avg_occupancy(self, level: int, *, per_core: bool = True) -> float:
        """Measured time-average MSHR occupancy at ``level``.

        With ``per_core=True`` (default) returns the per-core average —
        directly comparable to the paper's ``n_avg``.
        """
        trackers = self.l1_occupancy if level == 1 else self.l2_occupancy
        if not trackers or self.elapsed_ns <= 0:
            return 0.0
        total = sum(t.average(self.elapsed_ns) for t in trackers)
        return total / len(trackers) if per_core else total

    def mshr_full_fraction(self, level: int) -> float:
        """Fraction of run time the (average) MSHR file at ``level`` was full."""
        trackers = self.l1_occupancy if level == 1 else self.l2_occupancy
        if not trackers or self.elapsed_ns <= 0:
            return 0.0
        return sum(t.full_time_ns for t in trackers) / (
            len(trackers) * self.elapsed_ns
        )

    def arrival_rate_per_s(self) -> float:
        """Memory request completion rate (requests/s)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.memory.latency_count / ns(self.elapsed_ns)

    def events_per_sec(self) -> float:
        """Simulator throughput: engine events per host wall-clock second.

        The regression observable tracked by
        ``benchmarks/bench_sim_throughput.py``; zero when the run was
        replayed from cache or too fast to time.  Only comparable
        between runs on the *same* execution path: the batch fast path
        fires far fewer events for the same physics, so cross-path
        comparisons should use :meth:`accesses_per_sec`.
        """
        if self.wall_s <= 0.0:
            return 0.0
        return self.events_fired / self.wall_s

    def issued_total(self) -> int:
        """Accesses issued across all cores (demand + prefetch hints)."""
        return sum(c.issued_accesses for c in self.cores)

    def accesses_per_sec(self) -> float:
        """Simulator throughput in issued accesses per wall-clock second.

        Path-independent (unlike :meth:`events_per_sec`): the batch and
        event paths issue the same accesses, so this is the metric the
        throughput benchmark uses to compare them.
        """
        if self.wall_s <= 0.0:
            return 0.0
        return self.issued_total() / self.wall_s

    def note_batch_fallback(self, reason: str) -> None:
        """Tally one batch fast-path decline (diagnostic, non-semantic)."""
        self.batch_fallbacks[reason] = self.batch_fallbacks.get(reason, 0) + 1

    # -- serialization (for the repro.perf.cache content-addressed store) ------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; :meth:`from_dict` inverts it exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SimStats":
        """Rebuild from :meth:`to_dict` output (bit-exact roundtrip)."""
        return cls(
            routine=doc["routine"],
            elapsed_ns=doc["elapsed_ns"],
            l1=LevelStats(**doc["l1"]),
            l2=LevelStats(**doc["l2"]),
            memory=MemoryStats(**doc["memory"]),
            cores=[CoreStats(**c) for c in doc["cores"]],
            l1_occupancy=[OccupancyTracker(**t) for t in doc["l1_occupancy"]],
            l2_occupancy=[OccupancyTracker(**t) for t in doc["l2_occupancy"]],
            hw_prefetches_issued=doc["hw_prefetches_issued"],
            sw_prefetches_issued=doc["sw_prefetches_issued"],
            events_fired=doc.get("events_fired", 0),
            wakeups_in_place=doc.get("wakeups_in_place", 0),
            batch_accesses=doc.get("batch_accesses", 0),
            batch_miss_accesses=doc.get("batch_miss_accesses", 0),
            batch_fallbacks=dict(doc.get("batch_fallbacks", {})),
            wall_s=doc.get("wall_s", 0.0),
        )

    def fingerprint(self) -> str:
        """SHA-256 over every *semantic* observable of the run.

        Two runs of the same physics produce the same fingerprint
        regardless of host speed, worker count, or cache hits — the
        equivalence contract the perf layer's tests assert.
        """
        doc = self.to_dict()
        for key in _NON_SEMANTIC_FIELDS:
            doc.pop(key, None)
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def littles_law_check(self, level: int = 2) -> Dict[str, float]:
        """Compare measured occupancy with rate x latency (Little's law).

        Returns the measured time-average total occupancy, the product of
        measured arrival rate and measured average latency, and their
        relative error.  On a correct simulator these agree — this is the
        library's core property test.
        """
        measured = self.avg_occupancy(level, per_core=False)
        predicted = self.arrival_rate_per_s() * ns(self.memory.avg_latency_ns)
        err = abs(measured - predicted) / predicted if predicted else 0.0
        return {
            "measured_occupancy": measured,
            "rate_times_latency": predicted,
            "relative_error": err,
        }
