"""The paper's roofline extension: MSHR-imposed bandwidth ceilings (Fig. 2).

For a routine whose MLP is capped at ``n`` MSHRs per core, Little's law
bounds sustainable bandwidth at ``cores * n * cls / lat``; divided
through by intensity this is one more diagonal under the classic
bandwidth roof.  The paper draws the L1-MSHR ceiling for ISx on KNL
(256 GB/s, y-intercept 8 at intensity 1 against the 400 GB/s peak's
12.48) and shows the base point O sitting *on* that ceiling — the
classic roofline said "plenty of headroom", the extra ceiling says
"L1-MSHR bound", and L2 software prefetching is the move that raises
the ceiling toward the true roof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.littles_law import bandwidth_from_mlp
from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..units import to_gb_per_s
from .model import Roofline, RooflinePoint


@dataclass(frozen=True)
class MshrCeiling:
    """One MSHR-imposed bandwidth ceiling."""

    label: str
    level: int
    mshrs_per_core: int
    latency_ns: float
    bandwidth_gbs: float

    def attainable_gflops(self, intensity: float) -> float:
        """Ceiling-bounded performance at ``intensity``."""
        if intensity <= 0:
            raise ConfigurationError("intensity must be positive")
        return self.bandwidth_gbs * intensity


def mshr_ceiling(
    machine: MachineSpec,
    level: int,
    latency_ns: float,
    *,
    label: Optional[str] = None,
) -> MshrCeiling:
    """Build the ceiling for ``level``'s MSHR file at a loaded latency.

    The paper evaluates the ceiling at the latency the routine actually
    observes (ISx/KNL: 12 L1 MSHRs at ~180–190 ns → ~256 GB/s socket).
    """
    mshrs = machine.mshr_limit(level)
    bw_bytes = bandwidth_from_mlp(
        float(mshrs), latency_ns, machine.line_bytes, cores=machine.active_cores
    )
    return MshrCeiling(
        label=label or f"L{level}-MSHR ceiling ({mshrs}/core @ {latency_ns:.0f}ns)",
        level=level,
        mshrs_per_core=mshrs,
        latency_ns=latency_ns,
        bandwidth_gbs=to_gb_per_s(bw_bytes),
    )


@dataclass(frozen=True)
class ExtendedRoofline:
    """Classic roofline plus MSHR ceilings — the paper's Figure 2 object."""

    roofline: Roofline
    ceilings: Tuple[MshrCeiling, ...]

    def attainable_gflops(self, intensity: float, *, binding_level: Optional[int] = None) -> float:
        """Tightest bound at ``intensity``; restrict to one ceiling if asked."""
        bound = self.roofline.attainable_gflops(intensity)
        for ceiling in self.ceilings:
            if binding_level is not None and ceiling.level != binding_level:
                continue
            bound = min(bound, ceiling.attainable_gflops(intensity))
        return bound

    def binding_ceiling(self, point: RooflinePoint) -> Optional[MshrCeiling]:
        """The ceiling the point is effectively sitting on (within 15%)."""
        for ceiling in sorted(self.ceilings, key=lambda c: c.bandwidth_gbs):
            bound = min(
                ceiling.attainable_gflops(point.intensity_flops_per_byte),
                self.roofline.attainable_gflops(point.intensity_flops_per_byte),
            )
            if point.performance_gflops >= 0.85 * bound:
                return ceiling
        return None

    def explains_stall(self, point: RooflinePoint) -> bool:
        """Classic model shows headroom but an MSHR ceiling binds.

        This is the paper's Figure 2 argument in one predicate: the
        classic roofline alone would promise speedup (point well below
        the roof) while the routine is in fact pinned to an MSHR
        ceiling.
        """
        classic_headroom = self.roofline.headroom(point) > 1.2
        return classic_headroom and self.binding_ceiling(point) is not None

    def series(
        self, intensities: Sequence[float]
    ) -> List[Tuple[float, float, float]]:
        """(intensity, classic bound, extended bound) triples for plotting."""
        return [
            (
                x,
                self.roofline.attainable_gflops(x),
                self.attainable_gflops(x),
            )
            for x in intensities
        ]
