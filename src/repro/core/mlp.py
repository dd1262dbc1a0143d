"""MLP calculation: observed bandwidth + latency profile → n_avg.

This is the paper's central measurement pipeline (Figure 1, top half):

1. read the routine's observed bandwidth from portable counters
   (CrayPat substitute, :mod:`repro.counters`),
2. look up the loaded latency at that bandwidth on the machine's
   once-measured latency profile (an X-Mem sweep, or by default the
   machine's calibrated curve itself),
3. apply Little's law (Equation 2) to get the average MSHR-queue
   occupancy per core.

No per-load latency counter is involved anywhere — that is the whole
portability argument of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..units import gb_per_s, to_gb_per_s
from .littles_law import mlp_from_bandwidth


@dataclass(frozen=True)
class MlpResult:
    """The derived metrics for one routine measurement."""

    bandwidth_bytes: float
    utilization: float
    latency_ns: float
    #: Per-core average MSHR occupancy — the paper's ``n_avg``.
    n_avg: float
    #: Socket-level total outstanding requests.
    n_total: float
    cores: int
    line_bytes: int

    @property
    def bandwidth_gbs(self) -> float:
        """Observed bandwidth in GB/s."""
        return to_gb_per_s(self.bandwidth_bytes)

    def summary(self) -> str:
        """Paper-table-style one-liner: BW (xx%), lat, n_avg."""
        return (
            f"{self.bandwidth_gbs:.1f} GB/s ({self.utilization:.0%}), "
            f"lat {self.latency_ns:.0f} ns, n_avg {self.n_avg:.2f}"
        )


class MlpCalculator:
    """Computes :class:`MlpResult` from observed bandwidth.

    Parameters
    ----------
    machine:
        The host machine's spec (core count, line size, peak bandwidth).
    profile:
        The machine's loaded-latency profile.  If omitted, it is the
        machine's calibrated curve (``machine.latency_model``), the one
        the simulator and the solver read — the paper's workflow uses
        a measured X-Mem profile, and
        :func:`repro.xmem.characterize_machine` produces one.
    cores:
        Cores the measured routine ran on; defaults to the machine's
        loaded-run core count (the paper's recommended measurement
        condition is an all-cores run).
    """

    def __init__(
        self,
        machine: MachineSpec,
        profile: Optional[LatencyProfile] = None,
        *,
        cores: Optional[int] = None,
    ) -> None:
        self.machine = machine
        self.profile = profile or machine.latency_model
        if self.profile.machine_name != machine.name:
            raise ConfigurationError(
                f"profile is for {self.profile.machine_name!r}, "
                f"machine is {machine.name!r}"
            )
        self.cores = cores if cores is not None else machine.active_cores
        if not 0 < self.cores <= machine.cores:
            raise ConfigurationError(
                f"cores must be in 1..{machine.cores}, got {self.cores}"
            )

    def calculate(self, bandwidth_bytes: float) -> MlpResult:
        """Derive latency and per-core MLP for one observed bandwidth."""
        if bandwidth_bytes < 0:
            raise ConfigurationError("bandwidth must be >= 0")
        latency_ns = self.profile.latency_at(bandwidth_bytes)
        line = self.machine.line_bytes
        n_avg = mlp_from_bandwidth(bandwidth_bytes, latency_ns, line, cores=self.cores)
        return MlpResult(
            bandwidth_bytes=bandwidth_bytes,
            utilization=bandwidth_bytes / self.machine.memory.peak_bw_bytes,
            latency_ns=latency_ns,
            n_avg=n_avg,
            n_total=n_avg * self.cores,
            cores=self.cores,
            line_bytes=line,
        )

    def calculate_gbs(self, bandwidth_gbs: float) -> MlpResult:
        """Same as :meth:`calculate` with bandwidth given in GB/s."""
        return self.calculate(gb_per_s(bandwidth_gbs))
