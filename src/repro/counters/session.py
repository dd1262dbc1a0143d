"""Counter sessions: vendor-faithful readings over a simulation run.

A :class:`CounterSession` plays the role of ``perf``/PAPI on real
hardware: it exposes the abstract events of
:mod:`repro.counters.events`, but **only** those the vendor actually
supports — reading anything else raises
:class:`~repro.errors.CounterUnavailableError`, reproducing the
portability wall of paper Table I.

It also reproduces the two documented ways the Intel load-latency
counter misleads (paper Sections I–II):

* for random-access routines, the counter *over*-reports latency
  because re-dispatch and TLB walks are attributed to it (ISx: 75 % of
  loads binned above 512 cycles while true loaded latency was ~378);
* for prefetch-covered streaming routines it *under*-reports
  (HPCG: ~32 cycles average while true loaded latency was ~378),
  because most demand loads hit already-prefetched lines.

:meth:`CounterSession.load_latency_histogram` synthesizes these bins
from the simulator's ground truth so that the experiments can
demonstrate why the paper rejects that counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CounterUnavailableError
from ..machines.spec import MachineSpec
from ..resilience.quality import DataQualityIssue
from ..sim.stats import SimStats
from ..units import ns, ns_to_cycles
from .events import CounterEvent, NativeEvent, events_supported
from .vendor import vendor_for_machine

#: Intel PEBS-style latency thresholds, in cycles (paper Section II).
LATENCY_THRESHOLDS = (4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class CounterReading:
    """One event reading with its native name and caveat attached."""

    event: CounterEvent
    native: NativeEvent
    value: float


class CounterSession:
    """Vendor-filtered view of a finished simulation's statistics."""

    def __init__(self, machine: MachineSpec, stats: SimStats) -> None:
        self.machine = machine
        self.stats = stats
        self.vendor = vendor_for_machine(machine.name)
        self._supported = events_supported(self.vendor)

    # -- capability queries ------------------------------------------------------

    def supports(self, event: CounterEvent) -> bool:
        """Does this vendor expose ``event`` at all?"""
        return event in self._supported

    # -- readings -----------------------------------------------------------------

    def read(self, event: CounterEvent) -> CounterReading:
        """Read one event; raises if the vendor does not expose it."""
        native = self._supported.get(event)
        if native is None:
            raise CounterUnavailableError(self.vendor, event.value)
        return CounterReading(event=event, native=native, value=self._value(event))

    def read_with_quality(
        self, event: CounterEvent
    ) -> Tuple[Optional[CounterReading], List[DataQualityIssue]]:
        """Degraded-mode read: survive bad samples, report what happened.

        Real PMU sessions return NaN (broken counters — the paper cites
        outright-broken FLOP counters): a NaN sample returns the reading
        with a ``nan-counter`` issue so callers can substitute and
        widen.  An unsupported event is degraded to ``(None,
        [missing-counter issue])`` — the strict :meth:`read` raises
        instead.
        """
        issues: List[DataQualityIssue] = []
        native = self._supported.get(event)
        if native is None:
            issues.append(
                DataQualityIssue(
                    kind="missing-counter",
                    location=event.value,
                    detail=f"vendor {self.vendor!r} does not expose this event",
                )
            )
            return None, issues
        value = self._value(event)
        if math.isnan(value):
            issues.append(
                DataQualityIssue(
                    kind="nan-counter",
                    location=event.value,
                    detail="counter read back as NaN",
                )
            )
        return CounterReading(event=event, native=native, value=value), issues

    def _value(self, event: CounterEvent) -> float:
        stats = self.stats
        line = self.machine.line_bytes
        if event == CounterEvent.MEM_READ_LINES:
            # x86 L3-miss / offcore counters include demand reads and
            # (on separate sub-events) prefetches but miss writebacks.
            return (stats.memory.demand_read_bytes + stats.memory.prefetch_bytes) / line
        if event == CounterEvent.MEM_WRITE_LINES:
            return stats.memory.demand_write_bytes / line
        if event == CounterEvent.HW_PREFETCH_LINES:
            return stats.memory.prefetch_bytes / line
        if event == CounterEvent.L1_MSHR_FULL_STALLS:
            return ns_to_cycles(
                stats.l1.mshr_full_stall_ns, self.machine.frequency_ghz
            )
        if event == CounterEvent.L2_MSHR_FULL_STALLS:
            return ns_to_cycles(
                stats.l2.mshr_full_stall_ns, self.machine.frequency_ghz
            )
        if event == CounterEvent.L1D_MISSES:
            return float(stats.l1.misses)
        if event == CounterEvent.L2_MISSES:
            return float(stats.l2.misses)
        if event == CounterEvent.CPU_CYCLES:
            return ns_to_cycles(stats.elapsed_ns, self.machine.frequency_ghz)
        if event == CounterEvent.INSTRUCTIONS_RETIRED:
            issued = sum(c.issued_accesses for c in stats.cores)
            compute = sum(c.compute_cycles for c in stats.cores)
            # Roughly one memory instruction per access plus ~1 ALU
            # instruction per compute cycle (issue width folded in).
            return issued + compute
        raise CounterUnavailableError(self.vendor, event.value)

    # -- derived, vendor-portable bandwidth ----------------------------------------

    def bandwidth_bytes_per_s(self) -> float:
        """Observed memory bandwidth the way CrayPat derives it.

        On x86 the L3-miss counters exclude writebacks, so (as the paper
        notes) a heuristic writeback estimate is added; on A64FX the bus
        counters include writes directly.
        """
        if self.stats.elapsed_ns <= 0:
            return 0.0
        return self._traffic_bytes_per_s(lambda event: self.read(event).value)

    def bandwidth_with_quality(self) -> Tuple[float, List[DataQualityIssue]]:
        """Degraded-mode :meth:`bandwidth_bytes_per_s`.

        Each contributing counter is read through
        :meth:`read_with_quality`; a missing or NaN sample contributes
        zero traffic (an *under*-estimate, like a real multiplexing
        gap) and one :class:`DataQualityIssue`.  Feed the issues to
        :func:`repro.core.uncertainty.quality_widened_errors` so the
        resulting n_avg error bar reflects the degraded input.
        """
        if self.stats.elapsed_ns <= 0:
            return 0.0, []
        issues: List[DataQualityIssue] = []

        def lines_of(event: CounterEvent) -> float:
            reading, event_issues = self.read_with_quality(event)
            issues.extend(event_issues)
            if reading is None or math.isnan(reading.value):
                return 0.0
            return reading.value

        return self._traffic_bytes_per_s(lines_of), issues

    def _traffic_bytes_per_s(self, lines_of: Callable[[CounterEvent], float]) -> float:
        """Reads + writes over the run, each counter read via ``lines_of``."""
        line = self.machine.line_bytes
        reads = lines_of(CounterEvent.MEM_READ_LINES) * line
        if self.supports(CounterEvent.MEM_WRITE_LINES):
            writes = lines_of(CounterEvent.MEM_WRITE_LINES) * line
        else:
            # No write counter (SKL's L3-miss events): the heuristic
            # writeback estimate is the run's demand-write traffic.
            writes = self.stats.memory.demand_write_bytes
        return (reads + writes) / ns(self.stats.elapsed_ns)

    # -- the misleading load-latency counter ----------------------------------------

    def load_latency_histogram(
        self, *, random_fraction: Optional[float] = None
    ) -> Dict[int, float]:
        """Synthesize Intel's LOAD_LATENCY_GT_* bins for this run.

        Returns, for each threshold, the *fraction* of sampled loads
        whose reported latency exceeded it.  The reported latency is
        deliberately distorted the way the paper documents: random
        accesses gain TLB-walk/re-dispatch time (pushing them past the
        512 bin), while prefetch-covered loads report near-hit latency.

        Raises if the vendor has no such counter (ARM parts — Table I).
        """
        if not self.supports(CounterEvent.LOAD_LATENCY_GT_THRESHOLD):
            raise CounterUnavailableError(self.vendor, "load_latency_gt_threshold")
        stats = self.stats
        total_loads = max(1, stats.l1.hits + stats.l1.misses)
        covered = stats.memory.prefetch_fraction
        if random_fraction is None:
            random_fraction = max(0.0, 1.0 - covered)
        true_cycles = ns_to_cycles(
            stats.memory.avg_latency_ns, self.machine.frequency_ghz
        )
        hit_cycles = 8.0  # L1/L2-ish hit cost the counter reports for covered loads
        miss_fraction = stats.l1.misses / total_loads

        out: Dict[int, float] = {}
        for threshold in LATENCY_THRESHOLDS:
            frac = 0.0
            # Covered (prefetched) loads report ~hit latency.
            if hit_cycles > threshold:
                frac += (1.0 - random_fraction) * miss_fraction
            # Random-access loads report true latency inflated ~2x by
            # TLB walks, page-table walks and load re-dispatch (paper:
            # 75% of ISx loads binned above 512 cycles while the true
            # loaded latency was ~378).
            if true_cycles * 2.0 > threshold:
                frac += random_fraction * miss_fraction
            out[threshold] = min(1.0, frac)
        return out
