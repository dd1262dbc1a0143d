"""The optimization catalog of paper Section III-C.

Each :class:`OptimizationInfo` records how an optimization interacts
with MLP / MSHR-queue occupancy, which is exactly the property the
recipe keys on:

* *MLP-increasing* optimizations (vectorization, SMT, software
  prefetching) help only while the binding MSHR file has headroom;
* *occupancy-reducing* optimizations (loop tiling, loop fusion) are the
  ones to reach for when the MSHRQ is full;
* *L2 software prefetching* is the special move that shifts the binding
  queue from L1 to L2 for random-access routines (the ISx story);
* supporting transforms (unroll-and-jam, loop distribution) have their
  own applicability notes.

The catalog is data, not logic — :mod:`repro.core.recipe` selects from
it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Tuple

from .classify import AccessPattern


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
    """Recipe-relevant properties of one optimization."""

    kind: OptimizationKind
    #: Does it raise the demanded MLP (needs MSHR headroom to pay off)?
    increases_mlp: bool
    #: Does it cut total memory requests (helps when MSHRQ/bandwidth bound)?
    reduces_requests: bool
    #: Does it shift the binding MSHR file from L1 to L2?
    shifts_binding_to_l2: bool
    #: Access patterns it is applicable to.
    applicable_patterns: Tuple[AccessPattern, ...]
    #: Paper's one-line guidance.
    guidance: str

    @property
    def name(self) -> str:
        """Catalog name (the kind's string value)."""
        return self.kind.value


_ALL = (AccessPattern.RANDOM, AccessPattern.STREAMING, AccessPattern.MIXED)

CATALOG: Mapping[OptimizationKind, OptimizationInfo] = {
    OptimizationKind.VECTORIZATION: OptimizationInfo(
        kind=OptimizationKind.VECTORIZATION,
        increases_mlp=True,
        reduces_requests=False,
        shifts_binding_to_l2=False,
        applicable_patterns=_ALL,
        guidance=(
            "Very effective at increasing MLP; no additional benefit once "
            "average MSHRQ occupancy is close to MSHRQ size."
        ),
    ),
    OptimizationKind.SMT: OptimizationInfo(
        kind=OptimizationKind.SMT,
        increases_mlp=True,
        reduces_requests=False,
        shifts_binding_to_l2=False,
        applicable_patterns=_ALL,
        guidance=(
            "Threads share the core's MSHRs; profitable unless MSHRQ is "
            "near full, with caveats for cache-residency contention."
        ),
    ),
    OptimizationKind.SW_PREFETCH_L1: OptimizationInfo(
        kind=OptimizationKind.SW_PREFETCH_L1,
        increases_mlp=True,
        reduces_requests=False,
        shifts_binding_to_l2=False,
        applicable_patterns=_ALL,
        guidance=(
            "Each software prefetch occupies an MSHR, denying demand loads; "
            "not recommended when MSHRQ occupancy is already high. Useful "
            "for short inner loops the hardware prefetcher cannot cover "
            "timely (SNAP)."
        ),
    ),
    OptimizationKind.SW_PREFETCH_L2: OptimizationInfo(
        kind=OptimizationKind.SW_PREFETCH_L2,
        increases_mlp=True,
        reduces_requests=False,
        shifts_binding_to_l2=True,
        applicable_patterns=(AccessPattern.RANDOM, AccessPattern.MIXED),
        guidance=(
            "Prefetching to L2 uses the otherwise-idle L2 MSHRs of "
            "random-access routines, breaking through the L1-MSHR ceiling "
            "(ISx)."
        ),
    ),
    OptimizationKind.LOOP_TILING: OptimizationInfo(
        kind=OptimizationKind.LOOP_TILING,
        increases_mlp=False,
        reduces_requests=True,
        shifts_binding_to_l2=False,
        applicable_patterns=(AccessPattern.STREAMING, AccessPattern.MIXED),
        guidance=(
            "Excellent when occupancy is high: tiling reduces memory "
            "requests and therefore MSHRQ occupancy (MiniGhost)."
        ),
    ),
    OptimizationKind.UNROLL_AND_JAM: OptimizationInfo(
        kind=OptimizationKind.UNROLL_AND_JAM,
        increases_mlp=False,
        reduces_requests=True,
        shifts_binding_to_l2=False,
        applicable_patterns=_ALL,
        guidance=(
            "Register tiling; beneficial when accesses already see small "
            "latency (most data in cache), inferable from low MSHRQ "
            "occupancy (dgemm)."
        ),
    ),
    OptimizationKind.LOOP_FUSION: OptimizationInfo(
        kind=OptimizationKind.LOOP_FUSION,
        increases_mlp=False,
        reduces_requests=True,
        shifts_binding_to_l2=False,
        applicable_patterns=(AccessPattern.STREAMING, AccessPattern.MIXED),
        guidance=(
            "Reduces reuse distance and MSHRQ occupancy like tiling; can "
            "rarely hurt by increasing the number of data streams."
        ),
    ),
    OptimizationKind.LOOP_DISTRIBUTION: OptimizationInfo(
        kind=OptimizationKind.LOOP_DISTRIBUTION,
        increases_mlp=False,
        reduces_requests=False,
        shifts_binding_to_l2=False,
        applicable_patterns=(AccessPattern.STREAMING,),
        guidance=(
            "Helps only by reducing active streams / bandwidth contention; "
            "unlikely to benefit applications with low MLP."
        ),
    ),
}


def info(kind: OptimizationKind) -> OptimizationInfo:
    """Catalog lookup."""
    return CATALOG[kind]


def mlp_increasing() -> Tuple[OptimizationInfo, ...]:
    """All optimizations that raise demanded MLP."""
    return tuple(i for i in CATALOG.values() if i.increases_mlp)


def occupancy_reducing() -> Tuple[OptimizationInfo, ...]:
    """All optimizations that cut requests / occupancy."""
    return tuple(i for i in CATALOG.values() if i.reduces_requests)


def applicable_to(pattern: AccessPattern) -> Tuple[OptimizationInfo, ...]:
    """Catalog entries applicable to an access pattern."""
    return tuple(
        i for i in CATALOG.values() if pattern in i.applicable_patterns
    )
