"""The optimization catalog of paper Section III-C.

Each :class:`OptimizationInfo` names one optimization and carries the
paper's one-line guidance for it.  The families the paper sorts them
into are:

* *MLP-increasing* optimizations (vectorization, SMT, software
  prefetching) help only while the binding MSHR file has headroom;
* *occupancy-reducing* optimizations (loop tiling, loop fusion) are the
  ones to reach for when the MSHRQ is full;
* *L2 software prefetching* is the special move that shifts the binding
  queue from L1 to L2 for random-access routines (the ISx story);
* supporting transforms (unroll-and-jam, loop distribution) have their
  own applicability notes.

Which optimization applies to which routine state is decided in one
place, :class:`repro.core.recipe.Recipe`; this module holds no policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping


class OptimizationKind(enum.Enum):
    """Identifiers for every optimization the paper discusses."""

    VECTORIZATION = "vectorization"
    SMT = "smt"
    SW_PREFETCH_L1 = "sw_prefetch_l1"
    SW_PREFETCH_L2 = "sw_prefetch_l2"
    LOOP_TILING = "loop_tiling"
    UNROLL_AND_JAM = "unroll_and_jam"
    LOOP_FUSION = "loop_fusion"
    LOOP_DISTRIBUTION = "loop_distribution"


@dataclass(frozen=True)
class OptimizationInfo:
    """One catalog entry: the optimization and the paper's guidance."""

    kind: OptimizationKind
    #: Paper's one-line guidance.
    guidance: str

    @property
    def name(self) -> str:
        """Catalog name (the kind's string value)."""
        return self.kind.value


CATALOG: Mapping[OptimizationKind, OptimizationInfo] = {
    OptimizationKind.VECTORIZATION: OptimizationInfo(
        kind=OptimizationKind.VECTORIZATION,
        guidance=(
            "Very effective at increasing MLP; no additional benefit once "
            "average MSHRQ occupancy is close to MSHRQ size."
        ),
    ),
    OptimizationKind.SMT: OptimizationInfo(
        kind=OptimizationKind.SMT,
        guidance=(
            "Threads share the core's MSHRs; profitable unless MSHRQ is "
            "near full, with caveats for cache-residency contention."
        ),
    ),
    OptimizationKind.SW_PREFETCH_L1: OptimizationInfo(
        kind=OptimizationKind.SW_PREFETCH_L1,
        guidance=(
            "Each software prefetch occupies an MSHR, denying demand loads; "
            "not recommended when MSHRQ occupancy is already high. Useful "
            "for short inner loops the hardware prefetcher cannot cover "
            "timely (SNAP)."
        ),
    ),
    OptimizationKind.SW_PREFETCH_L2: OptimizationInfo(
        kind=OptimizationKind.SW_PREFETCH_L2,
        guidance=(
            "Prefetching to L2 uses the otherwise-idle L2 MSHRs of "
            "random-access routines, breaking through the L1-MSHR ceiling "
            "(ISx)."
        ),
    ),
    OptimizationKind.LOOP_TILING: OptimizationInfo(
        kind=OptimizationKind.LOOP_TILING,
        guidance=(
            "Excellent when occupancy is high: tiling reduces memory "
            "requests and therefore MSHRQ occupancy (MiniGhost)."
        ),
    ),
    OptimizationKind.UNROLL_AND_JAM: OptimizationInfo(
        kind=OptimizationKind.UNROLL_AND_JAM,
        guidance=(
            "Register tiling; beneficial when accesses already see small "
            "latency (most data in cache), inferable from low MSHRQ "
            "occupancy (dgemm)."
        ),
    ),
    OptimizationKind.LOOP_FUSION: OptimizationInfo(
        kind=OptimizationKind.LOOP_FUSION,
        guidance=(
            "Reduces reuse distance and MSHRQ occupancy like tiling; can "
            "rarely hurt by increasing the number of data streams."
        ),
    ),
    OptimizationKind.LOOP_DISTRIBUTION: OptimizationInfo(
        kind=OptimizationKind.LOOP_DISTRIBUTION,
        guidance=(
            "Helps only by reducing active streams / bandwidth contention; "
            "unlikely to benefit applications with low MLP."
        ),
    ),
}


def info(kind: OptimizationKind) -> OptimizationInfo:
    """Catalog lookup."""
    return CATALOG[kind]
