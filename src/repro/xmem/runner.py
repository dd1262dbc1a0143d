"""X-Mem runner: sweep load levels and emit a machine's LatencyProfile.

This is the reproduction of the paper's once-per-machine
characterization step (Section IV): "we obtain the latency profile for
a processor using X-Mem, which lists the observed memory latency at
many values of bandwidth utilization (configured using user-specified
load on system through inserted delays or through thread-level
parallelism — this does not require root privileges)".

The runner simulates a small machine slice per load level, records the
achieved bandwidth and the average loaded latency observed at the
memory controller, and assembles the samples into a
:class:`~repro.memory.profile.LatencyProfile` (``source="xmem"``).  The
simulated controller's latency comes from the machine's calibrated
curve, ``machine.latency_model`` — another instance of the same class,
stored in utilization like this one — but the measured profile does
not reproduce it: on skl it reads up to 58% above
the calibrated curve (188 vs 119 ns at utilization 0.74, 97 vs 80 ns at
idle).  ROADMAP.md's open item "Close the Eq. 2 loop on our own
simulator" tracks the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ProfileError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..perf.cache import cached_run_trace
from ..perf.parallel import fan_out
from ..sim.hierarchy import SimConfig
from .kernels import gap_sweep, throughput_trace


@dataclass(frozen=True)
class XMemMeasurement:
    """One load level's outcome."""

    gap_cycles: float
    bandwidth_bytes: float
    latency_ns: float
    utilization: float


#: Outstanding demand accesses per simulated core during a sweep.
WINDOW_PER_CORE = 32


@dataclass(frozen=True)
class XMemConfig:
    """Characterization sweep settings.

    ``sim_cores`` controls the simulated slice; the achieved bandwidths
    are scaled back to full-socket numbers so the resulting profile is
    directly usable with full-socket observed bandwidths.  Every level
    runs :func:`~repro.xmem.kernels.throughput_trace`'s default streams,
    the hardware prefetcher on, a :data:`WINDOW_PER_CORE` window, and
    :func:`~repro.xmem.kernels.gap_sweep`'s default delays, on the
    event engine (a throughput kernel leaves the batch fast path no
    run to retire).
    """

    sim_cores: int = 2
    accesses_per_thread: int = 3000
    levels: int = 12


class XMemRunner:
    """Sweeps load levels on one machine and builds its latency profile."""

    def __init__(self, machine: MachineSpec, config: Optional[XMemConfig] = None):
        self.machine = machine
        self.config = config or XMemConfig()
        if self.config.sim_cores > machine.active_cores:
            raise ProfileError("sim_cores exceeds machine cores")
        # Every load level simulates under the same config (only the
        # trace's gap varies), so it is built, and its cache-key form
        # computed, once per runner.
        self.sim_config = SimConfig(
            machine=machine,
            sim_cores=self.config.sim_cores,
            threads_per_core=1,
            window_per_core=WINDOW_PER_CORE,
            batch=False,
        )

    def measure_level(self, gap_cycles: float) -> XMemMeasurement:
        """Run one load level and return its (bandwidth, latency) sample."""
        cfg = self.config
        trace = throughput_trace(
            threads=cfg.sim_cores,
            accesses_per_thread=cfg.accesses_per_thread,
            line_bytes=self.machine.line_bytes,
            gap_cycles=gap_cycles,
            routine=f"xmem_gap{gap_cycles:.0f}",
        )
        stats = cached_run_trace(trace, self.sim_config)
        slice_fraction = cfg.sim_cores / self.machine.active_cores
        socket_bw = stats.bandwidth_bytes_per_s() / slice_fraction
        return XMemMeasurement(
            gap_cycles=gap_cycles,
            bandwidth_bytes=socket_bw,
            latency_ns=stats.memory.avg_latency_ns,
            utilization=socket_bw / self.machine.memory.peak_bw_bytes,
        )

    def sweep(self, *, jobs: Optional[int] = None) -> List[XMemMeasurement]:
        """Measure all load levels, near-idle to saturation.

        Load levels are independent simulations, so with ``jobs > 1``
        they fan out across worker processes
        (:func:`repro.perf.parallel.fan_out`); the measurement order —
        and therefore the profile — is identical for any worker count.

        Each level's simulation is stored in the sim cache, so a sweep
        interrupted part-way resumes by running it again: finished
        levels are cache hits.
        """
        gaps = gap_sweep(self.config.levels)
        return fan_out(self.measure_level, gaps, jobs=jobs)

    def characterize(self, *, jobs: Optional[int] = None) -> LatencyProfile:
        """Produce this machine's measured LatencyProfile."""
        return profile_from_measurements(
            self.machine, self.sweep(jobs=jobs), source="xmem"
        )


def profile_from_measurements(
    machine: MachineSpec, measurements: Sequence[XMemMeasurement], *, source: str
) -> LatencyProfile:
    """Build measured load levels into a machine's LatencyProfile.

    An explicit near-zero-load anchor (the lowest measured latency) is
    added so the profile's domain starts at zero bandwidth, and the
    samples are rectified to a non-decreasing curve and divided by the
    machine's peak into utilization points
    (:meth:`~repro.memory.profile.LatencyProfile.from_samples`).
    """
    samples: List[Tuple[float, float]] = [
        (m.bandwidth_bytes, m.latency_ns) for m in measurements
    ]
    samples.append((0.0, min(m.latency_ns for m in measurements)))
    return LatencyProfile.from_samples(
        machine.name, machine.memory.peak_bw_bytes, samples, source=source
    )


def characterize_machine(
    machine: MachineSpec,
    config: Optional[XMemConfig] = None,
    *,
    jobs: Optional[int] = None,
) -> LatencyProfile:
    """One-call characterization: the paper's per-machine prerequisite."""
    return XMemRunner(machine, config).characterize(jobs=jobs)
