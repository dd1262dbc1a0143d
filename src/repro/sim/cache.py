"""Set-associative cache arrays with true LRU replacement.

Only the tag arrays are modeled (no data).  The cache tracks dirtiness
so evictions of written lines produce writeback traffic — the paper
notes its bandwidth counters miss L3 writebacks and estimates them with
heuristics; our simulator counts them exactly, which is one of the
"simulator as counter oracle" advantages documented in DESIGN.md.

Each set is a plain ``dict`` of ``line -> dirty`` whose insertion order
is the LRU order (first key = least recently used).  A hit or refill is
one ``pop`` plus a re-insert, the victim is the first key, and a
presence probe is one ``in``: C-level dict operations, no Python scan
over the ways.  Dict equality ignores order, so compare two arrays'
LRU state through :meth:`CacheArray.lru_state`, never through ``_sets``.

Besides the scalar per-access API the array exposes a **vectorized probe
surface** (:meth:`CacheArray.probe_batch` / :meth:`CacheArray.touch_batch`)
used by the batch-stepping fast path in :mod:`repro.sim.batch`: whole
address vectors are classified hit/miss against a residency snapshot in
one numpy pass, and a verified all-hit run is replayed onto the LRU
state in aggregate — element-for-element equivalent to sequential
:meth:`CacheArray.access` calls, including aliasing within the batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..machines.spec import CacheSpec


class CacheArray:
    """Tag array for one cache at one core (or core cluster)."""

    __slots__ = (
        "spec",
        "name",
        "num_sets",
        "ways",
        "line_bytes",
        "_sets",
        "_resident_cache",
        "_pending",
        "fills",
        "evictions",
        "dirty_evictions",
        "_sanitizer",
        "maybe_dirty",
    )

    def __init__(self, spec: CacheSpec, name: str) -> None:
        self.spec = spec
        self.name = name
        self.num_sets = spec.num_sets
        self.ways = spec.associativity
        self.line_bytes = spec.line_bytes
        # Per set: line_addr -> dirty, insertion order = LRU order
        # (first key = LRU).  Compare sets via lru_state(): dict
        # equality ignores order.
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        # Sorted resident-line table for probe_batch; None = stale.
        # Only fills and invalidations change membership (hits merely
        # reorder): scalar fill/invalidate drop the table, fill_batch
        # keeps it current, so batched phases never rebuild it.
        self._resident_cache: Optional[np.ndarray] = None
        # Verified all-hit runs whose LRU/dirty replay is deferred: while
        # only hits occur, LRU order is unobservable (membership alone
        # decides hit/miss), so runs queue here and are replayed in one
        # concatenated pass the moment scalar state is needed again.
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0
        #: Conservative sticky flag: set on any write access, dirty
        #: fill, or batched write touch; never cleared.  While False the
        #: array provably holds no dirty line, so fills cannot produce
        #: writebacks — a precondition of the batched miss fast path.
        self.maybe_dirty = False
        #: Optional sanitizer replay checker (set by RunSanitizer).
        self._sanitizer = None

    def line_of(self, addr: int) -> int:
        """Line address (aligned) containing byte ``addr``."""
        return (addr // self.line_bytes) * self.line_bytes

    def probe(self, line_addr: int) -> bool:
        """Is the line present? (No LRU update — use :meth:`access`.)"""
        return line_addr in self._sets[(line_addr // self.line_bytes) % self.num_sets]

    def lru_state(self) -> List[List[Tuple[int, bool]]]:
        """Every set's ``(line_addr, dirty)`` pairs in LRU order (front = LRU).

        The order-sensitive view of the tag array, for comparing two
        arrays (dict ``==`` would ignore LRU order).  Reads the raw
        state: queued :meth:`touch_batch` runs are not applied.
        """
        return [list(ways.items()) for ways in self._sets]

    def access(self, line_addr: int, write: bool = False) -> bool:
        """Look up a line; on hit, update LRU (and dirty bit for writes).

        Returns True on hit, False on miss.  Misses do not install the
        line — installation happens on fill via :meth:`fill`.
        """
        if self._pending:
            self.flush_batch()
        if write:
            self.maybe_dirty = True
        ways = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        dirty = ways.pop(line_addr, None)
        if dirty is None:
            return False
        ways[line_addr] = dirty or write
        return True

    def fill(self, line_addr: int, dirty: bool = False) -> Optional[int]:
        """Install a line; returns the evicted *dirty* line address, if any.

        Clean evictions return None (no writeback traffic).  Filling a
        line that is already present just refreshes its LRU position.
        """
        if self._pending:
            self.flush_batch()
        if dirty:
            self.maybe_dirty = True
        ways = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        was_dirty = ways.pop(line_addr, None)
        if was_dirty is not None:
            ways[line_addr] = was_dirty or dirty
            return None
        self.fills += 1
        self._resident_cache = None
        victim_writeback: Optional[int] = None
        if len(ways) >= self.ways:
            victim_addr = next(iter(ways))
            self.evictions += 1
            if ways.pop(victim_addr):
                self.dirty_evictions += 1
                victim_writeback = victim_addr
        ways[line_addr] = dirty
        return victim_writeback

    def fill_batch(self, line_addrs: np.ndarray) -> None:
        """Install a run of lines; equivalent to :meth:`fill` per element.

        Callers must guarantee the batched-miss-path preconditions:
        every line is currently absent, no line appears twice, and the
        array holds no dirty line (``maybe_dirty`` is False), so no
        eviction can produce a writeback.  Under those conditions the
        scalar :meth:`fill`'s presence check always misses and its victim
        is always clean, so this reduces to the pure install/evict loop
        — same ``fills``/``evictions`` counters, same final LRU state.
        An array that may hold a dirty line raises before any change
        (the caller's precondition was violated).

        The sorted resident table :meth:`probe_batch` reads is kept
        current rather than dropped: the installed lines are merged in
        and every victim is deleted (found by ``searchsorted``), so a
        line filled and then evicted within the run ends up absent.
        """
        if self._pending:
            self.flush_batch()
        if not len(line_addrs):
            return
        if self.maybe_dirty:
            # One check for the whole run: with no dirty line anywhere,
            # no victim below can be dirty.
            raise SimulationError(
                f"{self.name}: fill_batch on an array that may hold a dirty "
                "line (clean-array precondition violated)"
            )
        self.fills += len(line_addrs)
        sets = self._sets
        ways_max = self.ways
        victims: List[int] = []
        evict = victims.append
        set_indices = (line_addrs // self.line_bytes % self.num_sets).tolist()
        for line, idx in zip(line_addrs.tolist(), set_indices):
            ways = sets[idx]
            if len(ways) >= ways_max:
                victim = next(iter(ways))
                del ways[victim]
                evict(victim)
            ways[line] = False
        self.evictions += len(victims)
        table = self._resident_cache
        if table is not None:
            self._resident_cache = _merge_fills(table, line_addrs, victims)
        if self._sanitizer is not None:
            self._sanitizer.on_fill()

    # -- vectorized probe surface (batch-stepping fast path) -------------------

    def line_of_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`line_of`: aligned line address per element."""
        return addrs // self.line_bytes * self.line_bytes

    def set_index_batch(self, line_addrs: np.ndarray) -> np.ndarray:
        """Vectorized set index per line address."""
        return (line_addrs // self.line_bytes) % self.num_sets

    def probe_batch(self, line_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`probe`: per-element residency, no LRU update.

        The result answers "is this line resident *right now*" for every
        element against one snapshot.  Because a tag stored in ``_sets``
        is the full line address, global membership is exactly
        set-index + tag match.  For a run of accesses this equals the
        sequential answer as long as residency does not change mid-run —
        hits never install or evict, so the answer is exact up to (and
        including) the first miss.
        """
        table = self._resident_cache
        if table is None:
            resident = [tag for ways in self._sets for tag in ways]
            table = np.sort(np.asarray(resident, dtype=np.uint64))
            self._resident_cache = table
        if not len(table):
            return np.zeros(len(line_addrs), dtype=bool)
        idx = np.searchsorted(table, line_addrs)
        np.minimum(idx, len(table) - 1, out=idx)
        return table[idx] == line_addrs

    def touch_batch(self, line_addrs: np.ndarray, writes: np.ndarray) -> None:
        """Queue a verified all-hit run for deferred LRU/dirty replay.

        Equivalent to ``access(line, write=w)`` per element in order:
        the final per-set LRU order is the untouched entries (old
        relative order) followed by the touched lines in last-touch
        order, and a touched line is dirty iff it was dirty before or
        any element of the batch wrote it.  Every line must currently be
        resident (the caller established that via :meth:`probe_batch`);
        a non-resident line raises :class:`SimulationError` at replay.

        The replay is *deferred*: while only hits occur, LRU order and
        dirty bits are unobservable, so consecutive runs accumulate and
        are replayed as one concatenated sequence (identical final
        state) when scalar state is next needed — on the next
        :meth:`access`/:meth:`fill`/:meth:`invalidate`, or an explicit
        :meth:`flush_batch`.
        """
        if len(line_addrs):
            if writes.any():
                self.maybe_dirty = True
            if self._sanitizer is not None:
                self._sanitizer.on_touch(line_addrs, writes)
            self._pending.append((line_addrs, writes))

    def flush_batch(self) -> None:
        """Replay any queued all-hit runs onto the LRU/dirty state."""
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        if len(pending) == 1:
            line_addrs, writes = pending[0]
        else:
            line_addrs = np.concatenate([run[0] for run in pending])
            writes = np.concatenate([run[1] for run in pending])
        # Last-touch order: first occurrence in the reversed array is the
        # last occurrence in the original; sort unique lines by original
        # last-touch position (descending reversed index).
        uniq, first_rev = np.unique(line_addrs[::-1], return_index=True)
        order = np.argsort(-first_rev)
        last_order_arr = uniq[order]
        last_order = last_order_arr.tolist()
        written = (
            set(line_addrs[writes].tolist()) if writes.any() else frozenset()
        )
        # Re-inserting each touched line in last-touch order leaves every
        # set as its untouched lines (old relative order) followed by its
        # touched lines in last-touch order.
        sets = self._sets
        set_indices = (last_order_arr // self.line_bytes % self.num_sets).tolist()
        for set_idx, line in zip(set_indices, last_order):
            ways = sets[set_idx]
            dirty = ways.pop(line, None)
            if dirty is None:
                missing = [hex(li) for li in last_order if not self.probe(li)]
                raise SimulationError(
                    f"{self.name}: touch_batch on non-resident line(s) "
                    f"{', '.join(missing)}"
                )
            ways[line] = dirty or line in written
        if self._sanitizer is not None:
            self._sanitizer.on_flush()

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was present."""
        if self._pending:
            self.flush_batch()
        ways = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        if ways.pop(line_addr, None) is None:
            return False
        self._resident_cache = None
        return True

    def resident_lines(self) -> int:
        """Total lines currently resident (for tests)."""
        return sum(len(ways) for ways in self._sets)


def _merge_fills(table: np.ndarray, lines: np.ndarray, victims: List[int]) -> np.ndarray:
    """Sorted resident table after installing ``lines`` and evicting ``victims``.

    ``lines`` are absent from ``table``, so the two merge without
    duplicates, and every victim (an old resident, or a line installed
    earlier in the same run) occurs exactly once in the merge, where
    ``searchsorted`` finds it.  numpy's stable sort is a timsort for
    64-bit keys, so sorting the concatenation of the two sorted arrays
    is a linear merge.
    """
    merged = np.concatenate([table, np.sort(lines)])
    merged.sort(kind="stable")
    if victims:
        # Sorted queries walk the table in order: ~25% cheaper.
        gone = np.asarray(victims, dtype=merged.dtype)
        gone.sort()
        keep = np.ones(len(merged), dtype=bool)
        keep[np.searchsorted(merged, gone)] = False
        merged = merged[keep]
    return merged
