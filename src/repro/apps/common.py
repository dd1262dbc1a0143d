"""Shared machinery for the executable mini-apps.

Each module in :mod:`repro.apps` *implements* one paper application at
reduced scale — real data structures, verifiable numerical results —
and extracts the kernel's **actual address stream** while running it.
This is one rung more faithful than the statistical generators in
:mod:`repro.workloads`: the gather indices are the real column indices
of a real sparse matrix, the bucket addresses come from the real keys,
and so on.

Two pieces are shared:

* :class:`AddressSpace` — lays the app's arrays out in a flat virtual
  address space (region-aligned so different arrays never share cache
  lines), and turns ``(array, element_index)`` into byte addresses;
* :class:`TraceRecorder` — collects the kernel's loads/stores/prefetch
  hints in order as plain address/kind/gap columns, which
  :func:`build_trace` packages as a simulator
  :class:`~repro.sim.coltrace.ColumnarTrace`, one thread per recorder
  (the apps partition their iteration spaces the way the real ones do).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sim.coltrace import (
    GAP_DTYPE,
    KIND_CODES,
    KIND_DTYPE,
    ColumnarThreadTrace,
    ColumnarTrace,
)
from ..sim.trace import AccessKind

#: Array regions are aligned to this boundary (keeps sets disjoint).
REGION_ALIGN = 16 * 1024 * 1024

_LOAD = KIND_CODES[AccessKind.LOAD]
_STORE = KIND_CODES[AccessKind.STORE]
_SWPF_L2 = KIND_CODES[AccessKind.SWPF_L2]


class AddressSpace:
    """Virtual layout of an app's arrays."""

    def __init__(self) -> None:
        self._bases: Dict[str, int] = {}
        self._itemsize: Dict[str, int] = {}
        self._next_base = REGION_ALIGN  # keep address 0 unused

    def add(self, name: str, length: int, itemsize: int = 8) -> None:
        """Register an array of ``length`` elements of ``itemsize`` bytes."""
        if name in self._bases:
            raise ConfigurationError(f"array {name!r} already registered")
        if length <= 0 or itemsize <= 0:
            raise ConfigurationError("length and itemsize must be positive")
        self._bases[name] = self._next_base
        self._itemsize[name] = itemsize
        span = length * itemsize
        regions = (span + REGION_ALIGN - 1) // REGION_ALIGN + 1
        self._next_base += regions * REGION_ALIGN

    def addr(self, name: str, index: int) -> int:
        """Byte address of ``name[index]``."""
        try:
            return self._bases[name] + int(index) * self._itemsize[name]
        except KeyError:
            raise ConfigurationError(f"unknown array {name!r}") from None

    def arrays(self) -> Tuple[str, ...]:
        """Registered array names."""
        return tuple(self._bases)


class TraceRecorder:
    """Collects a kernel's access stream for one thread."""

    def __init__(self, space: AddressSpace, *, default_gap: float = 2.0) -> None:
        self.space = space
        self.default_gap = default_gap
        self._addrs: List[int] = []
        self._kinds: List[int] = []
        self._gaps: List[float] = []

    def _record(self, addr: int, kind: int, gap: float) -> None:
        self._addrs.append(addr)
        self._kinds.append(kind)
        self._gaps.append(gap)

    def load(self, array: str, index: int, *, gap: Optional[float] = None) -> None:
        """Record a demand load of ``array[index]``."""
        self._record(
            self.space.addr(array, index),
            _LOAD,
            self.default_gap if gap is None else gap,
        )

    def store(self, array: str, index: int, *, gap: Optional[float] = None) -> None:
        """Record a demand store to ``array[index]``."""
        self._record(
            self.space.addr(array, index),
            _STORE,
            self.default_gap if gap is None else gap,
        )

    def prefetch_l2(self, array: str, index: int) -> None:
        """Record an L2-targeted software prefetch of ``array[index]``."""
        self._record(self.space.addr(array, index), _SWPF_L2, 0.5)

    def to_thread(self, thread_id: int) -> ColumnarThreadTrace:
        """Package the recorded stream as one thread's trace."""
        return ColumnarThreadTrace(
            thread_id,
            np.array(self._addrs, dtype=np.int64),
            np.array(self._kinds, dtype=KIND_DTYPE),
            np.array(self._gaps, dtype=GAP_DTYPE),
        )

    def __len__(self) -> int:
        return len(self._addrs)


def build_trace(
    recorders: Sequence[TraceRecorder],
    *,
    routine: str,
    line_bytes: int,
) -> ColumnarTrace:
    """Assemble per-thread recorders into a simulator trace."""
    if not recorders:
        raise ConfigurationError("need at least one recorder")
    return ColumnarTrace(
        threads=tuple(rec.to_thread(i) for i, rec in enumerate(recorders)),
        routine=routine,
        line_bytes=line_bytes,
    )


def partition(n: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous [start, end) ranges splitting ``n`` items into ``parts``."""
    if parts <= 0:
        raise ConfigurationError("parts must be positive")
    base = n // parts
    rem = n % parts
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        out.append((start, start + size))
        start += size
    return out
