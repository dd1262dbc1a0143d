"""Columnar (structure-of-arrays) traces: the simulator's workload format.

Every producer — the workload generators, the mini-app extractors, the
X-Mem kernels and :func:`trace_from_addresses` — emits this one
representation, and the simulator, the perf cache and the trace files
consume it.  Per thread a trace is three parallel numpy arrays

* ``addr`` — byte addresses, little-endian ``uint64``;
* ``kind`` — :class:`~repro.sim.trace.AccessKind` codes, ``uint8``
  (see :data:`KIND_CODES`);
* ``gap_cycles`` — independent-work cycles before each access,
  little-endian ``float64``.

so no access ever pays CPython object overhead on the hot paths.
:attr:`ColumnarThreadTrace.accesses` is a lazy read-only view that
materializes :class:`~repro.sim.trace.Access` records only when
something asks for them.  :func:`trace_digest` hashes the canonical
array bytes directly (zero-copy via the buffer protocol), so cache
keying never walks the trace in Python.

Array dtypes are pinned to explicit little-endian forms so digests and
on-disk trace files (:mod:`repro.io.tracefile`) are identical across
platforms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..errors import TraceError
from .trace import Access, AccessKind

#: Canonical on-wire dtypes (explicit little-endian: digest/file stable).
ADDR_DTYPE = np.dtype("<u8")
KIND_DTYPE = np.dtype("|u1")
GAP_DTYPE = np.dtype("<f8")

#: AccessKind -> uint8 code.  Demand kinds come first so a simple
#: ``code < _FIRST_PREFETCH_CODE`` test classifies demand vs prefetch.
KIND_CODES = {
    AccessKind.LOAD: 0,
    AccessKind.STORE: 1,
    AccessKind.SWPF_L1: 2,
    AccessKind.SWPF_L2: 3,
}

#: uint8 code -> AccessKind (index with the code).
KINDS_BY_CODE: Tuple[AccessKind, ...] = (
    AccessKind.LOAD,
    AccessKind.STORE,
    AccessKind.SWPF_L1,
    AccessKind.SWPF_L2,
)

_FIRST_PREFETCH_CODE = KIND_CODES[AccessKind.SWPF_L1]

#: Version tag mixed into every trace digest; bump when the canonical
#: byte layout below changes.
TRACE_DIGEST_SCHEMA = "repro-coltrace-v1"


def _as_addr_array(addr: np.ndarray) -> np.ndarray:
    """Coerce to the canonical address array, rejecting negatives."""
    arr = np.asarray(addr)
    if arr.ndim != 1:
        raise TraceError(f"addr must be 1-D, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.signedinteger) and arr.size and arr.min() < 0:
        raise TraceError(f"negative address {int(arr.min())}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TraceError(f"addr must be an integer array, got {arr.dtype}")
    return np.ascontiguousarray(arr.astype(ADDR_DTYPE, copy=False))


def _as_kind_array(kind: np.ndarray) -> np.ndarray:
    """Coerce to the canonical kind-code array, rejecting unknown codes."""
    arr = np.asarray(kind)
    if arr.ndim != 1:
        raise TraceError(f"kind must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TraceError(f"kind must be an integer array, got {arr.dtype}")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= len(KINDS_BY_CODE)):
        raise TraceError(
            f"kind codes must be in 0..{len(KINDS_BY_CODE) - 1} "
            f"(got {int(arr.min())}..{int(arr.max())})"
        )
    return np.ascontiguousarray(arr.astype(KIND_DTYPE, copy=False))


def _as_gap_array(gap: np.ndarray) -> np.ndarray:
    """Coerce to the canonical gap array, rejecting non-finite or negative gaps."""
    arr = np.asarray(gap)
    if arr.ndim != 1:
        raise TraceError(f"gap_cycles must be 1-D, got shape {arr.shape}")
    out = np.ascontiguousarray(arr.astype(GAP_DTYPE, copy=False))
    # min and max propagate NaN, which fails both compares; a negative
    # or -inf gap fails the first, +inf the second.
    if out.size and not (out.min() >= 0.0 and out.max() < np.inf):
        bad = out[~((out >= 0.0) & (out < np.inf))]
        raise TraceError(f"gap must be finite and non-negative, got {float(bad[0])}")
    return out


@dataclass(eq=False)
class AccessColumns:
    """A run of accesses as three parallel arrays (the generator unit).

    This is the mutable building block the workload generators emit and
    combine (:func:`concat_columns` / :func:`interleave_columns`); a
    finished per-thread run becomes an immutable
    :class:`ColumnarThreadTrace`.  Iteration and indexing produce
    read-only :class:`~repro.sim.trace.Access` views for tests —
    never use them on a hot path.
    """

    addr: np.ndarray
    kind: np.ndarray
    gap_cycles: np.ndarray

    def __post_init__(self) -> None:
        self.addr = _as_addr_array(self.addr)
        self.kind = _as_kind_array(self.kind)
        self.gap_cycles = _as_gap_array(self.gap_cycles)
        if not (len(self.addr) == len(self.kind) == len(self.gap_cycles)):
            raise TraceError(
                "column length mismatch: "
                f"addr={len(self.addr)} kind={len(self.kind)} "
                f"gap={len(self.gap_cycles)}"
            )

    @classmethod
    def empty(cls) -> "AccessColumns":
        """A zero-length run."""
        return cls(
            np.empty(0, ADDR_DTYPE), np.empty(0, KIND_DTYPE), np.empty(0, GAP_DTYPE)
        )

    def __len__(self) -> int:
        return len(self.addr)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Access, "AccessColumns"]:
        if isinstance(index, slice):
            return AccessColumns(
                self.addr[index], self.kind[index], self.gap_cycles[index]
            )
        return Access(
            int(self.addr[index]),
            KINDS_BY_CODE[int(self.kind[index])],
            float(self.gap_cycles[index]),
        )

    def __iter__(self) -> Iterator[Access]:
        kinds = KINDS_BY_CODE
        for a, k, g in zip(
            self.addr.tolist(), self.kind.tolist(), self.gap_cycles.tolist()
        ):
            yield Access(a, kinds[k], g)


def concat_columns(runs: Sequence[AccessColumns]) -> AccessColumns:
    """Concatenate runs in order into one run."""
    if not runs:
        return AccessColumns.empty()
    return AccessColumns(
        np.concatenate([r.addr for r in runs]),
        np.concatenate([r.kind for r in runs]),
        np.concatenate([r.gap_cycles for r in runs]),
    )


def interleave_columns(
    major: AccessColumns, minor: AccessColumns, *, period: int
) -> AccessColumns:
    """Sprinkle ``minor`` through ``major``: one insert per ``period``.

    Mirrors the workload modules' historical merge loops exactly: the
    j-th minor element lands after major element ``(j+1)*period - 1``;
    once the major run (or the insertion budget) is exhausted, leftover
    minor elements are appended at the end.
    """
    if period <= 0:
        raise TraceError("period must be positive")
    n_major, n_minor = len(major), len(minor)
    n_inserted = min(n_minor, n_major // period)
    total = n_major + n_minor
    minor_positions = np.arange(1, n_inserted + 1) * (period + 1) - 1
    is_minor = np.zeros(total, dtype=bool)
    is_minor[minor_positions] = True
    tail = n_minor - n_inserted
    if tail:
        is_minor[total - tail :] = True
    columns = {
        "addr": np.empty(total, ADDR_DTYPE),
        "kind": np.empty(total, KIND_DTYPE),
        "gap_cycles": np.empty(total, GAP_DTYPE),
    }
    for name, column in columns.items():
        column[is_minor] = getattr(minor, name)
        column[~is_minor] = getattr(major, name)
    return AccessColumns(**columns)


@dataclass(frozen=True, eq=False)
class ColumnarThreadTrace:
    """One hardware thread's trace as structure-of-arrays.

    Arrays are coerced to the canonical dtypes and marked read-only at
    construction — a trace is content, and the perf-cache digest
    depends on it never changing.
    """

    thread_id: int
    addr: np.ndarray
    kind: np.ndarray
    gap_cycles: np.ndarray

    def __post_init__(self) -> None:
        if self.thread_id < 0:
            raise TraceError("thread_id must be >= 0")
        setattr_ = object.__setattr__
        setattr_(self, "addr", _as_addr_array(self.addr))
        setattr_(self, "kind", _as_kind_array(self.kind))
        setattr_(self, "gap_cycles", _as_gap_array(self.gap_cycles))
        if not (len(self.addr) == len(self.kind) == len(self.gap_cycles)):
            raise TraceError(
                "column length mismatch: "
                f"addr={len(self.addr)} kind={len(self.kind)} "
                f"gap={len(self.gap_cycles)}"
            )
        for arr in (self.addr, self.kind, self.gap_cycles):
            arr.setflags(write=False)
        # Demand codes sort below prefetch codes; count once, O(n) total.
        setattr_(
            self,
            "_demand_count",
            int(np.count_nonzero(self.kind < _FIRST_PREFETCH_CODE)),
        )

    @classmethod
    def from_columns(cls, thread_id: int, columns: AccessColumns) -> "ColumnarThreadTrace":
        """Freeze a generator run into a thread trace."""
        return cls(thread_id, columns.addr, columns.kind, columns.gap_cycles)

    def __len__(self) -> int:
        return len(self.addr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarThreadTrace):
            return NotImplemented
        return (
            self.thread_id == other.thread_id
            and np.array_equal(self.addr, other.addr)
            and np.array_equal(self.kind, other.kind)
            and np.array_equal(self.gap_cycles, other.gap_cycles)
        )

    @property
    def demand_count(self) -> int:
        """Demand (non-prefetch) accesses (counted once at construction)."""
        return self._demand_count  # type: ignore[attr-defined, no-any-return]

    @property
    def accesses(self) -> Tuple[Access, ...]:
        """Lazy read-only ``Access`` view; built on first use, then cached."""
        cached = getattr(self, "_accesses", None)
        if cached is None:
            kinds = KINDS_BY_CODE
            cached = tuple(
                Access(a, kinds[k], g)
                for a, k, g in zip(
                    self.addr.tolist(), self.kind.tolist(), self.gap_cycles.tolist()
                )
            )
            object.__setattr__(self, "_accesses", cached)
        return cached

    def issue_columns(self) -> Tuple[List[int], List[AccessKind]]:
        """Plain-Python address and kind lists for the simulator's issue loop.

        One ``tolist()`` per column replaces per-access ``Access``
        materialization: the driver then indexes ints and shared
        ``AccessKind`` singletons.  Cached per thread trace.
        """
        cols = getattr(self, "_issue_columns", None)
        if cols is None:
            kinds = KINDS_BY_CODE
            cols = (
                self.addr.tolist(),
                [kinds[c] for c in self.kind.tolist()],
            )
            object.__setattr__(self, "_issue_columns", cols)
        return cols  # type: ignore[no-any-return]


@dataclass(frozen=True, eq=False)
class ColumnarTrace:
    """A multi-threaded trace plus bookkeeping.

    Attributes
    ----------
    threads:
        One :class:`ColumnarThreadTrace` per hardware thread.
    routine:
        Name of the routine this trace models (per-routine analysis is
        central to the paper's method).
    line_bytes:
        Cache-line granularity the addresses were generated for; the
        hierarchy validates this against the machine.
    """

    threads: Tuple[ColumnarThreadTrace, ...]
    routine: str = "kernel"
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if not self.threads:
            raise TraceError("trace must contain at least one thread")
        ids = [t.thread_id for t in self.threads]
        if len(set(ids)) != len(ids):
            raise TraceError("duplicate thread ids in trace")
        if self.line_bytes <= 0:
            raise TraceError("line_bytes must be positive")
        object.__setattr__(
            self, "_total_accesses", sum(len(t) for t in self.threads)
        )
        object.__setattr__(
            self, "_total_demand", sum(t.demand_count for t in self.threads)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            self.routine == other.routine
            and self.line_bytes == other.line_bytes
            and self.threads == other.threads
        )

    @property
    def total_accesses(self) -> int:
        """All accesses across threads (counted once at construction)."""
        return self._total_accesses  # type: ignore[attr-defined, no-any-return]

    @property
    def total_demand(self) -> int:
        """All demand accesses across threads (counted once at construction)."""
        return self._total_demand  # type: ignore[attr-defined, no-any-return]


def columnar_trace(
    columns_per_thread: Sequence[AccessColumns],
    *,
    routine: str = "kernel",
    line_bytes: int = 64,
) -> ColumnarTrace:
    """Convenience: one trace from per-thread generator runs, ids 0..n-1."""
    return ColumnarTrace(
        threads=tuple(
            ColumnarThreadTrace.from_columns(i, cols)
            for i, cols in enumerate(columns_per_thread)
        ),
        routine=routine,
        line_bytes=line_bytes,
    )


def trace_from_addresses(
    addresses_per_thread: Sequence[Sequence[int]],
    *,
    routine: str = "kernel",
    line_bytes: int = 64,
    gap_cycles: float = 0.0,
    kind: AccessKind = AccessKind.LOAD,
) -> ColumnarTrace:
    """Convenience: one single-kind, fixed-gap trace from raw address lists."""
    runs = []
    for addrs in addresses_per_thread:
        addr = np.asarray(addrs) if len(addrs) else np.empty(0, ADDR_DTYPE)
        runs.append(
            AccessColumns(
                addr,
                np.full(len(addr), KIND_CODES[kind], KIND_DTYPE),
                np.full(len(addr), gap_cycles, GAP_DTYPE),
            )
        )
    return columnar_trace(runs, routine=routine, line_bytes=line_bytes)


def trace_digest(trace: ColumnarTrace) -> str:
    """SHA-256 of a trace's complete physical content, zero-copy.

    The digest covers a canonical JSON header (schema tag, routine,
    line size, per-thread ids and lengths) followed by each thread's
    raw array bytes prefixed with their dtype — so any address, kind,
    gap, thread id, thread order, or length change produces a new
    digest, while the bytes themselves are hashed straight out of the
    arrays via the buffer protocol (works unchanged on mmap-backed
    arrays from :mod:`repro.io.tracefile`).
    """
    hasher = hashlib.sha256()
    header = {
        "schema": TRACE_DIGEST_SCHEMA,
        "routine": trace.routine,
        "line_bytes": trace.line_bytes,
        "threads": [[t.thread_id, len(t)] for t in trace.threads],
    }
    hasher.update(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    for thread in trace.threads:
        for arr in (thread.addr, thread.kind, thread.gap_cycles):
            hasher.update(f"|{arr.dtype.str}:{arr.size}|".encode("ascii"))
            hasher.update(memoryview(np.ascontiguousarray(arr)))
    return hasher.hexdigest()
