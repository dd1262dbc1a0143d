"""TLB and page-table-walk modeling (paper footnote 4).

The paper notes that its bandwidth counters "also include memory
traffic due to page table walks from memory, and thus contribution of
the most expensive TLB misses towards bandwidth utilization (and
therefore latency) is accounted for in this way".  This optional
component gives the simulator the same behaviour:

* a per-core, fully-associative (set-of-pages) TLB with LRU
  replacement;
* on a TLB miss, a page-walk **memory read** is issued before the
  demand access proceeds, adding both latency to the access and bytes
  to the bandwidth counters — which is exactly why random-access
  workloads (ISx) show inflated per-load latencies on the PEBS counter
  while the bandwidth-based method absorbs the walk traffic correctly.

The model walks one level (the leaf PTE) per miss; upper levels are
assumed cached, which matches the dominant cost on the paper's 4 KiB /
large-page mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import SimulationError


@dataclass
class TlbStats:
    """Counters for one TLB."""

    hits: int = 0
    misses: int = 0
    walks_issued: int = 0

    @property
    def miss_rate(self) -> float:
        """TLB miss rate."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class Tlb:
    """Per-core TLB with true-LRU replacement at page granularity."""

    def __init__(self, entries: int, *, page_bytes: int = 4096) -> None:
        if entries <= 0:
            raise SimulationError("TLB must have at least one entry")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise SimulationError("page size must be a positive power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self._pages: List[int] = []  # LRU order, front = LRU
        # Sorted resident-page snapshot for probe_batch; None = stale.
        # Hits (and touch_batch) only reorder LRU, so all-hit phases
        # reuse one snapshot; miss installs/evictions invalidate it.
        self._probe_cache: Optional[np.ndarray] = None
        # Verified all-hit runs whose LRU replay is deferred: hits only
        # reorder LRU (unobservable until the next miss must evict), so
        # runs queue here and replay in one pass via flush_batch().
        self._pending: List[np.ndarray] = []
        self.stats = TlbStats()
        #: Optional sanitizer replay checker (set by RunSanitizer).
        self._sanitizer = None

    def page_of(self, addr: int) -> int:
        """Page number containing byte ``addr``."""
        return addr // self.page_bytes

    def access(self, addr: int) -> bool:
        """Translate; returns True on hit, False on miss (after install).

        A miss installs the translation (the walk result) immediately;
        the *timing* of the walk is the caller's responsibility (the
        hierarchy issues the walk's memory read).
        """
        if self._pending:
            self.flush_batch()
        page = self.page_of(addr)
        try:
            self._pages.remove(page)
            self._pages.append(page)
            self.stats.hits += 1
            return True
        except ValueError:
            pass
        self.stats.misses += 1
        self._probe_cache = None
        if len(self._pages) >= self.entries:
            self._pages.pop(0)
        self._pages.append(page)
        return False

    # -- vectorized probe surface (batch-stepping fast path) -------------------

    def probe_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized translation probe: per-element hit, no state change.

        Exact for a run of accesses as long as residency does not change
        mid-run — TLB hits only reorder LRU, so the answer holds up to
        (and including) the first miss.
        """
        pages = addrs // self.page_bytes
        table = self._probe_cache
        if table is None:
            table = np.sort(np.asarray(self._pages, dtype=np.uint64))
            self._probe_cache = table
        if not len(table):
            return np.zeros(len(pages), dtype=bool)
        idx = np.searchsorted(table, pages)
        np.minimum(idx, len(table) - 1, out=idx)
        return table[idx] == pages

    def touch_batch(self, addrs: np.ndarray) -> None:
        """Queue a verified all-hit run: LRU reorder plus hit counts.

        Equivalent to sequential :meth:`access` calls that all hit: the
        touched pages move to the MRU end in last-touch order.  Every
        page must currently be resident (established via
        :meth:`probe_batch`); otherwise :class:`SimulationError` at
        replay.  The reorder is deferred like
        :meth:`repro.sim.cache.CacheArray.touch_batch` — consecutive
        runs replay as one concatenated pass on the next :meth:`access`
        or explicit :meth:`flush_batch`; hit counts post immediately.
        """
        if len(addrs):
            if self._sanitizer is not None:
                self._sanitizer.on_touch(addrs)
            self._pending.append(addrs)
            self.stats.hits += len(addrs)

    def flush_batch(self) -> None:
        """Replay any queued all-hit runs onto the LRU order."""
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        addrs = pending[0] if len(pending) == 1 else np.concatenate(pending)
        pages = addrs // self.page_bytes
        uniq, first_rev = np.unique(pages[::-1], return_index=True)
        last_order = uniq[np.argsort(-first_rev)].tolist()
        touched = set(last_order)
        kept = [p for p in self._pages if p not in touched]
        if len(kept) + len(last_order) != len(self._pages):
            raise SimulationError(
                f"TLB touch_batch on non-resident page(s): "
                f"{sorted(touched - set(self._pages))}"
            )
        self._pages = kept + last_order
        if self._sanitizer is not None:
            self._sanitizer.on_flush()

    def pte_address(self, addr: int, *, pte_region_base: int = 1 << 44) -> int:
        """Synthetic leaf-PTE address for the page containing ``addr``.

        Placed in a reserved high region so walk traffic never collides
        with application data, 8 bytes per page.
        """
        return pte_region_base + self.page_of(addr) * 8

    @property
    def resident_pages(self) -> int:
        """Translations currently cached."""
        return len(self._pages)
