"""The paper's Figure 1 recipe: from n_avg to concrete optimization advice.

Decision structure (following the flowchart and the Section IV case
studies):

1. Compute ``n_avg`` (done upstream by :class:`~repro.core.mlp.MlpCalculator`).
2. Decide the **binding MSHR file**: L1 for random-access routines,
   L2 for prefetcher-covered streaming routines.
3. Compare ``n_avg`` against that file's size:

   * occupancy ≈ size → **stop**, or apply only occupancy-*reducing*
     optimizations (tiling, fusion); if the routine is random-access,
     the binding is L1 and the L2 MSHRs sit idle — recommend **L2
     software prefetching** to shift the bottleneck (ISx);
   * occupancy < size → MLP-increasing optimizations apply
     (vectorization first, then SMT, then software prefetch), *unless*
     bandwidth is already at the achievable-streams ceiling, in which
     case only request-reducing optimizations can help (HPCG/MiniGhost
     on SKL).

4. Re-measure and repeat after each applied optimization.

The decision also grades the **expected benefit** of each optimization
(none / marginal / moderate / significant), which is what the
experiments check against the paper's observed speedups row by row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from .classify import AccessPattern, Classification
from .mlp import MlpResult
from .optimizations import (
    CATALOG,
    OptimizationInfo,
    OptimizationKind,
)

#: Occupancy/limit ratio at and above which the MSHRQ counts as full.
FULL_RATIO = 0.95
#: Ratio above which gains from MLP-increasing optimizations are marginal.
NEAR_FULL_RATIO = 0.82
#: Fraction of achievable-streams bandwidth that counts as saturated.
BW_SATURATED_RATIO = 0.93
#: Prefetch streams one thread of a streaming routine typically carries
#: (paper Section IV-B: "each thread introduces 8-10 prefetch streams").
STREAMS_PER_THREAD = 8
#: Fraction of achievable bandwidth the paper treats as "very high",
#: where request-reducing optimizations (tiling) become the clear lever
#: (MiniGhost base runs at 67-84% and the paper's recipe "deems it
#: beneficial to perform loop tiling").
BW_HIGH_RATIO = 0.60


class OccupancyStatus(enum.Enum):
    """Where n_avg sits relative to the binding MSHR file."""

    HEADROOM = "headroom"
    NEAR_FULL = "near_full"
    FULL = "full"


class Benefit(enum.Enum):
    """Expected benefit grade for one optimization in one state."""

    NONE = 0
    MARGINAL = 1
    MODERATE = 2
    SIGNIFICANT = 3

    @property
    def expects_speedup(self) -> bool:
        """Does this grade predict a measurable (>= ~5%) speedup?"""
        return self.value >= Benefit.MODERATE.value


@dataclass(frozen=True)
class Recommendation:
    """One recommended (or contraindicated) optimization with a reason."""

    info: OptimizationInfo
    benefit: Benefit
    reason: str

    @property
    def kind(self) -> OptimizationKind:
        """The recommended optimization's kind."""
        return self.info.kind


@dataclass(frozen=True)
class RecipeContext:
    """What has already been done to the code (the 'Source' column)."""

    applied: FrozenSet[OptimizationKind] = frozenset()
    smt_ways_used: int = 1
    #: Force the binding level (overrides classification), for expert use.
    binding_level_override: Optional[int] = None


@dataclass(frozen=True)
class RecipeDecision:
    """Full output of one pass through the Figure-1 flowchart."""

    mlp: MlpResult
    classification: Classification
    binding_level: int
    mshr_limit: int
    occupancy_ratio: float
    status: OccupancyStatus
    bandwidth_ratio: float  # of achievable-streams bandwidth
    bandwidth_saturated: bool
    recommendations: Tuple[Recommendation, ...]
    notes: Tuple[str, ...]

    @property
    def stop(self) -> bool:
        """True when no optimization is expected to help."""
        return not any(r.benefit.expects_speedup for r in self.recommendations)

    def benefit_of(self, kind: OptimizationKind) -> Benefit:
        """Expected benefit of a specific optimization (NONE if absent)."""
        for rec in self.recommendations:
            if rec.kind == kind:
                return rec.benefit
        return Benefit.NONE

    def top_recommendation(self) -> Optional[Recommendation]:
        """Highest-benefit recommendation, or None when stopping."""
        viable = [r for r in self.recommendations if r.benefit.expects_speedup]
        return viable[0] if viable else None


class Recipe:
    """The Figure-1 decision engine for one machine."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine

    # -- main entry -------------------------------------------------------------

    def decide(
        self,
        mlp: MlpResult,
        classification: Classification,
        context: Optional[RecipeContext] = None,
    ) -> RecipeDecision:
        """Run the flowchart once for a measured routine state."""
        ctx = context or RecipeContext()
        machine = self.machine

        binding = ctx.binding_level_override or classification.binding_level
        if binding not in (1, 2):
            raise ConfigurationError(f"binding level must be 1 or 2, got {binding}")
        limit = machine.mshr_limit(binding)
        ratio = mlp.n_avg / limit if limit else float("inf")
        status = self._status(ratio)

        achievable = machine.memory.achievable_bw_bytes
        bw_ratio = mlp.bandwidth_bytes / achievable
        saturated = bw_ratio >= BW_SATURATED_RATIO

        notes: List[str] = [
            f"binding MSHRQ: L{binding} ({limit} entries/core), "
            f"n_avg {mlp.n_avg:.2f} -> {ratio:.0%} occupied",
            f"bandwidth {mlp.bandwidth_gbs:.1f} GB/s = {bw_ratio:.0%} of "
            f"achievable streams bandwidth",
        ]
        recs = self._recommend(mlp, classification, ctx, binding, status, saturated, notes)
        return RecipeDecision(
            mlp=mlp,
            classification=classification,
            binding_level=binding,
            mshr_limit=limit,
            occupancy_ratio=ratio,
            status=status,
            bandwidth_ratio=bw_ratio,
            bandwidth_saturated=saturated,
            recommendations=tuple(recs),
            notes=tuple(notes),
        )

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _status(ratio: float) -> OccupancyStatus:
        if ratio >= FULL_RATIO:
            return OccupancyStatus.FULL
        if ratio >= NEAR_FULL_RATIO:
            return OccupancyStatus.NEAR_FULL
        return OccupancyStatus.HEADROOM

    def _recommend(
        self,
        mlp: MlpResult,
        classification: Classification,
        ctx: RecipeContext,
        binding: int,
        status: OccupancyStatus,
        saturated: bool,
        notes: List[str],
    ) -> List[Recommendation]:
        recs: List[Recommendation] = []
        machine = self.machine
        pattern = classification.pattern

        # -- MLP-increasing family -------------------------------------------
        mlp_benefit = self._mlp_increasing_benefit(status, saturated, notes)

        if OptimizationKind.VECTORIZATION not in ctx.applied:
            recs.append(
                Recommendation(
                    CATALOG[OptimizationKind.VECTORIZATION],
                    mlp_benefit,
                    self._mlp_reason("vectorization", status, saturated),
                )
            )
        if machine.smt_ways > ctx.smt_ways_used:
            smt_benefit = mlp_benefit
            smt_reason = self._mlp_reason(
                f"{ctx.smt_ways_used * 2}-way SMT", status, saturated
            )
            # Paper Section IV-B: the L2 prefetcher tracks a bounded
            # number of streams; a streaming routine's threads each
            # bring ~8-10 streams, so going past the tracker capacity
            # caps the SMT gain (HPCG 4-way on KNL: 1.03x).
            next_ways = ctx.smt_ways_used * 2
            if (
                pattern is AccessPattern.STREAMING
                and next_ways * STREAMS_PER_THREAD > machine.prefetch_streams
                and smt_benefit.value > Benefit.MARGINAL.value
            ):
                smt_benefit = Benefit.MARGINAL
                smt_reason = (
                    f"{next_ways} threads x ~{STREAMS_PER_THREAD} streams "
                    f"exceed the {machine.prefetch_streams}-stream L2 "
                    "prefetch tracker; gains will be marginal"
                )
                notes.append(
                    "SMT gain limited by the hardware prefetcher's stream "
                    "tracking capacity"
                )
            recs.append(
                Recommendation(
                    CATALOG[OptimizationKind.SMT], smt_benefit, smt_reason
                )
            )
        elif machine.smt_ways == 1:
            notes.append("machine has no SMT; skipping the SMT recommendation")

        # -- the L1 -> L2 shift (ISx move) --------------------------------------
        if (
            binding == 1
            and pattern in (AccessPattern.RANDOM, AccessPattern.MIXED)
            and OptimizationKind.SW_PREFETCH_L2 not in ctx.applied
        ):
            l2_limit = machine.mshr_limit(2)
            if l2_limit > machine.mshr_limit(1) and not saturated:
                benefit = (
                    Benefit.SIGNIFICANT
                    if status in (OccupancyStatus.FULL, OccupancyStatus.NEAR_FULL)
                    else Benefit.MODERATE
                )
                recs.append(
                    Recommendation(
                        CATALOG[OptimizationKind.SW_PREFETCH_L2],
                        benefit,
                        (
                            f"L1 MSHRQ binds ({machine.mshr_limit(1)}/core) but "
                            f"{l2_limit} L2 MSHRs/core sit idle for this "
                            "random-access routine; prefetching to L2 shifts the "
                            "bottleneck and unlocks surplus bandwidth"
                        ),
                    )
                )

        # -- L1 software prefetch (short-loop timeliness, SNAP) ------------------
        if (
            OptimizationKind.SW_PREFETCH_L1 not in ctx.applied
            and status is OccupancyStatus.HEADROOM
            and not saturated
        ):
            if machine.hw_prefetcher_aggressive or pattern is AccessPattern.STREAMING:
                swpf_benefit = Benefit.MARGINAL
                swpf_reason = (
                    "the hardware prefetcher already covers most of what "
                    "software prefetches could add; expect only marginal gains "
                    "(plus prefetch-instruction overhead)"
                )
            else:
                swpf_benefit = Benefit.MODERATE
                swpf_reason = (
                    "MSHRQ occupancy is low; software prefetches can add MLP "
                    "where the hardware prefetcher is not timely"
                )
            recs.append(
                Recommendation(
                    CATALOG[OptimizationKind.SW_PREFETCH_L1],
                    swpf_benefit,
                    swpf_reason,
                )
            )
        elif status is not OccupancyStatus.HEADROOM:
            notes.append(
                "software prefetching to L1 not recommended: each prefetch "
                "occupies an MSHR the demand stream needs"
            )

        # -- occupancy-reducing family -------------------------------------------
        bw_ratio = mlp.bandwidth_bytes / machine.memory.achievable_bw_bytes
        if status in (OccupancyStatus.FULL, OccupancyStatus.NEAR_FULL) or saturated:
            reduce_benefit = Benefit.SIGNIFICANT
        elif bw_ratio >= BW_HIGH_RATIO:
            # Bandwidth already very high: cutting requests is the clear
            # lever (paper's MiniGhost guidance).
            reduce_benefit = Benefit.MODERATE
        else:
            reduce_benefit = Benefit.MARGINAL
        if pattern is not AccessPattern.RANDOM:
            if OptimizationKind.LOOP_TILING not in ctx.applied:
                recs.append(
                    Recommendation(
                        CATALOG[OptimizationKind.LOOP_TILING],
                        reduce_benefit,
                        "tiling reduces memory requests and MSHRQ occupancy; "
                        "the right lever when occupancy/bandwidth are high",
                    )
                )
            if OptimizationKind.LOOP_FUSION not in ctx.applied:
                recs.append(
                    Recommendation(
                        CATALOG[OptimizationKind.LOOP_FUSION],
                        Benefit.MARGINAL
                        if reduce_benefit is Benefit.SIGNIFICANT
                        else Benefit.NONE,
                        "fusion promotes reuse like tiling but can add streams; "
                        "secondary to tiling",
                    )
                )

        # -- register tiling at very low occupancy --------------------------------
        if mlp.n_avg < 1.0 and OptimizationKind.UNROLL_AND_JAM not in ctx.applied:
            recs.append(
                Recommendation(
                    CATALOG[OptimizationKind.UNROLL_AND_JAM],
                    Benefit.MODERATE,
                    "very low MSHRQ occupancy implies data largely in cache; "
                    "register tiling exploits that",
                )
            )

        recs.sort(key=lambda r: r.benefit.value, reverse=True)
        return recs

    @staticmethod
    def _mlp_increasing_benefit(
        status: OccupancyStatus, saturated: bool, notes: List[str]
    ) -> Benefit:
        if saturated:
            notes.append(
                "already at peak achievable streams bandwidth: MLP-increasing "
                "optimizations cannot help (HPCG/MiniGhost-on-SKL scenario)"
            )
            return Benefit.NONE
        if status is OccupancyStatus.FULL:
            notes.append(
                "MSHRQ effectively full: no headroom to push MLP further"
            )
            return Benefit.NONE
        if status is OccupancyStatus.NEAR_FULL:
            return Benefit.MARGINAL
        return Benefit.SIGNIFICANT

    @staticmethod
    def _mlp_reason(name: str, status: OccupancyStatus, saturated: bool) -> str:
        if saturated:
            return f"{name}: no benefit expected, bandwidth already saturated"
        if status is OccupancyStatus.FULL:
            return f"{name}: no benefit expected, MSHRQ is full"
        if status is OccupancyStatus.NEAR_FULL:
            return f"{name}: only marginal benefit, MSHRQ nearly full"
        return f"{name}: MSHRQ headroom available, expect a real speedup"
