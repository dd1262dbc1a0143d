"""Top-Down Microarchitectural Analysis (TMA) category tree.

The four level-1 buckets of Yasin's TMA [1] with the level-2 split of
Backend Bound into Core Bound / Memory Bound, and the paper-relevant
level-3 split of Memory Bound into Bandwidth Bound / Latency Bound.
This is the comparator the paper critiques in Sections I–II; the
breakdown semantics implemented in :mod:`repro.tma.analysis`
intentionally carry the same ambiguities the paper documents
(threshold-based bandwidth/latency attribution, whole-program rather
than per-routine reporting, misleading average-latency metric).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping


class TmaCategory(enum.Enum):
    """TMA buckets, flattened with dotted paths."""

    RETIRING = "retiring"
    FRONTEND_BOUND = "frontend_bound"
    BAD_SPECULATION = "bad_speculation"
    BACKEND_BOUND = "backend_bound"
    BACKEND_CORE = "backend_bound.core_bound"
    BACKEND_MEMORY = "backend_bound.memory_bound"
    MEMORY_BANDWIDTH = "backend_bound.memory_bound.bandwidth_bound"
    MEMORY_LATENCY = "backend_bound.memory_bound.latency_bound"

    @property
    def level(self) -> int:
        """Depth in the TMA tree (1 = top)."""
        return self.value.count(".") + 1

    @property
    def parent(self) -> "TmaCategory | None":
        """Parent category, or None at level 1."""
        if "." not in self.value:
            return None
        return TmaCategory(self.value.rsplit(".", 1)[0])


@dataclass(frozen=True)
class TmaBreakdown:
    """Fractions per category (each level sums to ~1 within its parent)."""

    fractions: Mapping[TmaCategory, float]

    def __post_init__(self) -> None:
        for cat, frac in self.fractions.items():
            if not 0.0 <= frac <= 1.0 + 1e-9:
                raise ValueError(f"{cat.value}: fraction {frac} out of [0,1]")

    def __getitem__(self, cat: TmaCategory) -> float:
        return self.fractions.get(cat, 0.0)

    def render(self) -> str:
        """Indented text rendering of the breakdown."""
        lines = ["TMA breakdown:"]
        for cat in TmaCategory:
            if cat in self.fractions:
                indent = "  " * cat.level
                lines.append(f"{indent}{cat.value.split('.')[-1]:<18s} {self[cat]:.1%}")
        return "\n".join(lines)
