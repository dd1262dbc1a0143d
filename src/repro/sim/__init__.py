"""Trace-driven cache/MSHR/prefetcher/memory simulator.

This package is the reproduction's stand-in for both the hardware
performance counters and the "Cray/HPE proprietary cycle-level
simulator" the paper uses for validation (see DESIGN.md §2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .cache import CacheArray
    from .coltrace import (
        AccessColumns,
        ColumnarThreadTrace,
        ColumnarTrace,
        columnar_trace,
        concat_columns,
        interleave_columns,
        trace_digest,
        trace_from_addresses,
    )
    from .engine import Engine
    from .hierarchy import Hierarchy, SimConfig, run_trace
    from .memctrl import MemoryController
    from .mshr import MshrEntry, MshrFile
    from .prefetcher import StreamPrefetcher
    from .stats import (
        CoreStats,
        LevelStats,
        MemoryStats,
        OccupancyTracker,
        SimStats,
    )
    from .tlb import Tlb, TlbStats
    from .trace import Access, AccessKind

__all__ = [
    "Access",
    "AccessColumns",
    "AccessKind",
    "CacheArray",
    "ColumnarThreadTrace",
    "ColumnarTrace",
    "CoreStats",
    "Engine",
    "Hierarchy",
    "LevelStats",
    "MemoryController",
    "MemoryStats",
    "MshrEntry",
    "MshrFile",
    "OccupancyTracker",
    "SimConfig",
    "SimStats",
    "StreamPrefetcher",
    "Tlb",
    "TlbStats",
    "columnar_trace",
    "concat_columns",
    "interleave_columns",
    "run_trace",
    "trace_digest",
    "trace_from_addresses",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "cache": (
            "CacheArray",
        ),
        "coltrace": (
            "AccessColumns",
            "ColumnarThreadTrace",
            "ColumnarTrace",
            "columnar_trace",
            "concat_columns",
            "interleave_columns",
            "trace_digest",
            "trace_from_addresses",
        ),
        "engine": (
            "Engine",
        ),
        "hierarchy": (
            "Hierarchy",
            "SimConfig",
            "run_trace",
        ),
        "memctrl": (
            "MemoryController",
        ),
        "mshr": (
            "MshrEntry",
            "MshrFile",
        ),
        "prefetcher": (
            "StreamPrefetcher",
        ),
        "stats": (
            "CoreStats",
            "LevelStats",
            "MemoryStats",
            "OccupancyTracker",
            "SimStats",
        ),
        "tlb": (
            "Tlb",
            "TlbStats",
        ),
        "trace": (
            "Access",
            "AccessKind",
        ),
    },
)
