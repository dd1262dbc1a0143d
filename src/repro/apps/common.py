"""Shared machinery for the executable mini-apps.

Each module in :mod:`repro.apps` *implements* one paper application at
reduced scale — real data structures, verifiable numerical results —
and extracts the kernel's **actual address stream**.  This is one rung
more faithful than the statistical generators in
:mod:`repro.workloads`: the gather indices are the real column indices
of a real sparse matrix, the bucket addresses come from the real keys,
and so on.

The streams are built from whole-array passes over the app's own index
arrays, never one Python call per access.  Three pieces are shared:

* :class:`AddressSpace` — lays the app's arrays out in a flat virtual
  address space (region-aligned so different arrays never share cache
  lines), and turns ``(array, element_index)`` into byte addresses,
  for one index or a whole index array at once;
* :func:`slot_columns` — reads a per-element slot matrix (the addresses
  each loop iteration touches, in program order) out as one thread's
  address/kind/gap columns;
* :func:`partition` — the contiguous per-thread split of an iteration
  space (the apps partition their loops the way the real ones do).

:func:`~repro.sim.coltrace.columnar_trace` packages the per-thread
columns as a simulator trace, thread ids in partition order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sim.coltrace import GAP_DTYPE, KIND_CODES, KIND_DTYPE, AccessColumns
from ..sim.trace import AccessKind

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Array regions are aligned to this boundary (keeps sets disjoint).
REGION_ALIGN = 16 * 1024 * 1024

#: Kind codes of the slots the apps emit.
LOAD = KIND_CODES[AccessKind.LOAD]
STORE = KIND_CODES[AccessKind.STORE]
SWPF_L2 = KIND_CODES[AccessKind.SWPF_L2]


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

    def addr(self, name: str, index: ArrayLike) -> np.ndarray:
        """``int64`` byte addresses of ``name[index]``, shaped like ``index``."""
        try:
            base, itemsize = self._bases[name], self._itemsize[name]
        except KeyError:
            raise ConfigurationError(f"unknown array {name!r}") from None
        return base + np.asarray(index, dtype=np.int64) * itemsize

    def arrays(self) -> Tuple[str, ...]:
        """Registered array names."""
        return tuple(self._bases)


def slot_columns(
    addr: np.ndarray,
    kinds: Sequence[int],
    gaps: Sequence[float],
    mask: Optional[np.ndarray] = None,
) -> AccessColumns:
    """One thread's accesses from a per-element slot matrix.

    ``addr`` is ``(elements, slots)``: row ``i`` holds the addresses
    element ``i`` touches, in program order.  ``kinds`` and ``gaps``
    give each slot's kind code and gap.  The rows are read out in order,
    so element ``i``'s accesses come before element ``i + 1``'s.
    ``mask`` (same shape as ``addr``) drops the slots an element does
    not execute; their addresses are never used.
    """
    kind = np.broadcast_to(np.asarray(kinds, KIND_DTYPE), addr.shape)
    gap = np.broadcast_to(np.asarray(gaps, GAP_DTYPE), addr.shape)
    if mask is None:
        return AccessColumns(addr.reshape(-1), kind.reshape(-1), gap.reshape(-1))
    return AccessColumns(addr[mask], kind[mask], gap[mask])


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
