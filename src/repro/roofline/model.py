"""Classic roofline model (Williams et al. [13]), the paper's baseline.

Performance (GFLOP/s) versus arithmetic intensity (FLOP/byte), bounded
by the memory-bandwidth diagonal and the peak-compute horizontal.  The
paper uses a log-log roofline of ISx on KNL (Figure 2); this module
provides the arithmetic and the series generation used by the Figure 2
experiment, and the MSHR ceiling extension lives in
:mod:`repro.roofline.mshr_ceiling`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec


@dataclass(frozen=True)
class RooflinePoint:
    """One application placed on the roofline."""

    label: str
    intensity_flops_per_byte: float
    performance_gflops: float

    def __post_init__(self) -> None:
        if self.intensity_flops_per_byte <= 0:
            raise ConfigurationError("intensity must be positive")
        if self.performance_gflops < 0:
            raise ConfigurationError("performance must be >= 0")


@dataclass(frozen=True)
class Roofline:
    """A machine's classic roofline."""

    machine_name: str
    peak_gflops: float
    peak_bw_gbs: float

    def __post_init__(self) -> None:
        if self.peak_gflops <= 0 or self.peak_bw_gbs <= 0:
            raise ConfigurationError("peaks must be positive")

    @classmethod
    def for_machine(cls, machine: MachineSpec) -> "Roofline":
        return cls(
            machine_name=machine.name,
            peak_gflops=machine.peak_gflops,
            peak_bw_gbs=machine.peak_bw_gbs,
        )

    def attainable_gflops(self, intensity: float) -> float:
        """min(peak, BW * intensity) — the roofline bound."""
        if intensity <= 0:
            raise ConfigurationError("intensity must be positive")
        return min(self.peak_gflops, self.peak_bw_gbs * intensity)

    def headroom(self, point: RooflinePoint) -> float:
        """Attainable / achieved: >1 means the classic model sees headroom."""
        achieved = point.performance_gflops
        if achieved <= 0:
            return float("inf")
        return self.attainable_gflops(point.intensity_flops_per_byte) / achieved

    def series(
        self, intensities: Sequence[float]
    ) -> List[Tuple[float, float]]:
        """(intensity, attainable) pairs for plotting."""
        return [(x, self.attainable_gflops(x)) for x in intensities]


def log_intensity_grid(
    lo: float = 0.01, hi: float = 100.0, points: int = 49
) -> List[float]:
    """Log-spaced intensity axis for roofline series."""
    if lo <= 0 or hi <= lo or points < 2:
        raise ConfigurationError("need 0 < lo < hi and points >= 2")
    import numpy as np

    return [float(x) for x in np.logspace(np.log10(lo), np.log10(hi), points)]
