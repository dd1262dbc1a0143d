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
from typing import List

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
        self.stats = TlbStats()

    def page_of(self, addr: int) -> int:
        """Page number containing byte ``addr``."""
        return addr // self.page_bytes

    def access(self, addr: int) -> bool:
        """Translate; returns True on hit, False on miss (after install).

        A miss installs the translation (the walk result) immediately;
        the *timing* of the walk is the caller's responsibility (the
        hierarchy issues the walk's memory read).
        """
        page = self.page_of(addr)
        try:
            self._pages.remove(page)
            self._pages.append(page)
            self.stats.hits += 1
            return True
        except ValueError:
            pass
        self.stats.misses += 1
        if len(self._pages) >= self.entries:
            self._pages.pop(0)
        self._pages.append(page)
        return False

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
