"""Miss Status Handling Register (MSHR) file.

The MSHR file is the structure the whole paper revolves around: every
unique outstanding miss at a cache level holds one MSHR from allocation
until fill, so its time-average occupancy *is* the level's MLP
(Section III-A).  This implementation tracks, per file:

* entries keyed by line address, with secondary misses **merged** onto
  the primary (duplicate requests never allocate a second MSHR, exactly
  as the paper describes),
* a time-weighted occupancy integral (ground truth for ``n_avg``),
* full-stall time and a waiter list so the core/prefetcher can retry
  when an entry frees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .stats import OccupancyTracker


@dataclass(slots=True)
class MshrEntry:
    """One in-flight miss: the primary request plus merged waiters.

    Allocated once per unique outstanding miss — the hottest allocation
    in the simulator — hence ``slots=True``.
    """

    line_addr: int
    is_prefetch: bool
    issued_ns: float
    #: Callbacks to run when the fill arrives (merged secondary misses).
    waiters: List[Callable[[], None]] = field(default_factory=list)

    def merge(self, on_fill: Optional[Callable[[], None]], *, demand: bool) -> None:
        """Attach a secondary miss; a demand merge upgrades a prefetch entry."""
        if on_fill is not None:
            self.waiters.append(on_fill)
        if demand:
            self.is_prefetch = False


class MshrFile:
    """A fixed-capacity MSHR file for one cache level of one core."""

    __slots__ = (
        "name",
        "capacity",
        "entries",
        "tracker",
        "_free_waiters",
        "allocations",
        "merges",
        "_audit",
        "_staged",
    )

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"{name}: MSHR capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.entries: Dict[int, MshrEntry] = {}
        self.tracker = OccupancyTracker(name=name, capacity=capacity)
        self._free_waiters: List[Callable[[], None]] = []
        self.allocations = 0
        self.merges = 0
        #: Optional sanitizer QueueAudit (set by RunSanitizer).
        self._audit = None
        #: Allocations staged by :meth:`allocate_batch`, applied (merged
        #: with their releases in event order) by :meth:`release_batch`.
        self._staged: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- queries ---------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Entries currently in flight."""
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        """No free entries remain."""
        return len(self.entries) >= self.capacity

    def lookup(self, line_addr: int) -> Optional[MshrEntry]:
        """Existing in-flight entry for ``line_addr``, if any."""
        return self.entries.get(line_addr)

    # -- state changes ----------------------------------------------------------

    def allocate(
        self, now_ns: float, line_addr: int, *, is_prefetch: bool
    ) -> MshrEntry:
        """Allocate an MSHR; caller must have checked :attr:`is_full`."""
        if line_addr in self.entries:
            raise SimulationError(
                f"{self.name}: duplicate allocation for line {line_addr:#x}"
            )
        if self.is_full:
            raise SimulationError(f"{self.name}: allocate on full MSHR file")
        entry = MshrEntry(line_addr=line_addr, is_prefetch=is_prefetch, issued_ns=now_ns)
        self.tracker.add(now_ns, +1)
        self.entries[line_addr] = entry
        self.allocations += 1
        if self._audit is not None:
            self._audit.enter(now_ns, line_addr)
        return entry

    def merge(
        self,
        line_addr: int,
        on_fill: Optional[Callable[[], None]],
        *,
        demand: bool,
    ) -> MshrEntry:
        """Merge a secondary miss onto the in-flight entry for the line."""
        entry = self.entries.get(line_addr)
        if entry is None:
            raise SimulationError(f"{self.name}: merge with no entry for {line_addr:#x}")
        entry.merge(on_fill, demand=demand)
        self.merges += 1
        return entry

    def release(self, now_ns: float, line_addr: int) -> MshrEntry:
        """Free the MSHR on fill and return the entry (with its waiters).

        Also wakes anyone blocked on a full file (core issue stalls).
        """
        entry = self.entries.pop(line_addr, None)
        if entry is None:
            raise SimulationError(
                f"{self.name}: release with no entry for {line_addr:#x}"
            )
        self.tracker.add(now_ns, -1)
        if self._audit is not None:
            self._audit.exit(now_ns, line_addr)
        if self._free_waiters:
            waiters, self._free_waiters = self._free_waiters, []
            for waiter in waiters:
                waiter()
        return entry

    def wait_for_free(self, callback: Callable[[], None]) -> None:
        """Register a retry callback for when any MSHR frees."""
        self._free_waiters.append(callback)

    # -- vectorized batch surface (batch-stepping miss fast path) --------------

    def allocate_batch(self, times_ns: np.ndarray, line_addrs: np.ndarray) -> None:
        """Stage a run of allocations whose releases are already planned.

        The occupancy accounting (tracker integral, full time, peak,
        audit) is applied by the matching :meth:`release_batch` call,
        which merges allocations and releases into event-engine firing
        order — an allocation alone says nothing about how occupancy
        integrates against the releases interleaved with it.  The caller
        owns the batch preconditions: ``times_ns`` are the exact
        event-path allocation instants in issue order (nondecreasing),
        and the lines are unique and absent from the live entries.
        """
        if self._staged is not None:
            raise SimulationError(
                f"{self.name}: allocate_batch while a batch is already staged"
            )
        n = len(times_ns)
        if n != len(line_addrs):
            raise SimulationError(f"{self.name}: batch times/lines length mismatch")
        if n:
            if np.any(times_ns[1:] < times_ns[:-1]):
                raise SimulationError(
                    f"{self.name}: batch allocation times must be nondecreasing"
                )
            sorted_lines = np.sort(line_addrs)
            if (sorted_lines[1:] == sorted_lines[:-1]).any():
                raise SimulationError(
                    f"{self.name}: duplicate line in batch allocation"
                )
            if self.entries:
                for line in line_addrs.tolist():
                    if line in self.entries:
                        raise SimulationError(
                            f"{self.name}: batch allocation collides with "
                            f"live entry {line:#x}"
                        )
        self._staged = (times_ns, line_addrs)
        self.allocations += n

    def release_batch(self, times_ns: np.ndarray) -> None:
        """Release the staged batch; applies the merged occupancy history.

        ``times_ns[i]`` is the event-path release instant of the
        ``i``-th staged allocation (strictly after it).  Allocations and
        releases are merged by time — equal-time releases keep issue
        order, matching the engine's sequence-number tie-break — and fed
        to :meth:`OccupancyTracker.add_batch` plus the sanitizer audit
        in that exact order, so integrals and audits are bit-identical
        to the scalar event path.  An allocation/release time collision
        is rejected: the engine's firing order there depends on
        scheduling history the batch cannot reconstruct, so the caller
        must cut the run before such a tie instead.
        """
        if self._staged is None:
            raise SimulationError(f"{self.name}: release_batch with nothing staged")
        alloc_times, lines = self._staged
        self._staged = None
        n = len(alloc_times)
        if len(times_ns) != n:
            raise SimulationError(f"{self.name}: batch release length mismatch")
        if n == 0:
            return
        if np.any(times_ns <= alloc_times):
            raise SimulationError(
                f"{self.name}: batch release at or before its allocation"
            )
        order = np.argsort(times_ns, kind="stable")
        release_t = times_ns[order]
        pos = np.searchsorted(release_t, alloc_times)
        np.minimum(pos, n - 1, out=pos)
        if (release_t[pos] == alloc_times).any():
            raise SimulationError(
                f"{self.name}: allocation/release time collision in batch"
            )
        if self._free_waiters:
            raise SimulationError(
                f"{self.name}: batch release with stalled waiters pending"
            )
        merged_t = np.concatenate([alloc_times, release_t])
        merged_delta = np.empty(2 * n, dtype=np.int64)
        merged_delta[:n] = 1
        merged_delta[n:] = -1
        merged_lines = np.concatenate([lines, lines[order]])
        fire = np.argsort(merged_t, kind="stable")
        self.tracker.add_batch(merged_t[fire], merged_delta[fire])
        if self._audit is not None:
            audit = self._audit
            for t, delta, line in zip(
                merged_t[fire].tolist(),
                merged_delta[fire].tolist(),
                merged_lines[fire].tolist(),
            ):
                if delta > 0:
                    audit.enter(t, line, site="allocate_batch")
                else:
                    audit.exit(t, line)
