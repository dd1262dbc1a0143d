"""CrayPat substitute: per-routine bandwidth attribution.

The paper measures each routine's observed bandwidth with CrayPat,
"which reports this number in its default output using readily available
counters for all three processors".  This module reproduces that layer:
a :class:`RoutineProfile` holds per-routine counter sessions and emits
the per-routine bandwidth report the analyzer consumes.

Per-routine (not whole-program) attribution is a stated requirement of
the method: "averaging counter data from multiple routines that often
behave differently usually provides misleading guidance" (Section
III-D).  :meth:`RoutineProfile.whole_program_bandwidth` exists precisely
so experiments can demonstrate that failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import CounterError
from ..machines.spec import MachineSpec
from ..sim.stats import SimStats
from ..units import ns_to_ms, to_gb_per_s
from .session import CounterSession


@dataclass(frozen=True)
class RoutineReport:
    """CrayPat-style one-routine summary."""

    routine: str
    time_ns: float
    bandwidth_bytes: float
    prefetch_fraction: float
    machine_name: str

    @property
    def bandwidth_gbs(self) -> float:
        """Observed bandwidth in GB/s."""
        return to_gb_per_s(self.bandwidth_bytes)

    def render(self, peak_bw_bytes: float) -> str:
        """One table line, paper style: 'BW (xx%)'."""
        pct = 100.0 * self.bandwidth_bytes / peak_bw_bytes
        return (
            f"{self.routine:<24s} {ns_to_ms(self.time_ns):>9.3f} ms  "
            f"{self.bandwidth_gbs:>8.1f} GB/s ({pct:.0f}%)  "
            f"pf={self.prefetch_fraction:.2f}"
        )


class RoutineProfile:
    """Accumulates per-routine simulation runs into a CrayPat-like report."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine
        self._sessions: Dict[str, CounterSession] = {}

    def add_run(self, stats: SimStats) -> CounterSession:
        """Record one routine's finished run; returns its counter session."""
        if stats.elapsed_ns <= 0:
            raise CounterError(f"run for routine {stats.routine!r} has no elapsed time")
        if stats.routine in self._sessions:
            raise CounterError(f"routine {stats.routine!r} already profiled")
        session = CounterSession(self.machine, stats)
        self._sessions[stats.routine] = session
        return session

    @property
    def routines(self) -> Tuple[str, ...]:
        """Names of the routines profiled so far."""
        return tuple(self._sessions)

    def session(self, routine: str) -> CounterSession:
        """The counter session recorded for ``routine``."""
        try:
            return self._sessions[routine]
        except KeyError:
            raise CounterError(f"routine {routine!r} was not profiled") from None

    def report(self, routine: str) -> RoutineReport:
        """Per-routine bandwidth report (the analyzer's input)."""
        session = self.session(routine)
        return RoutineReport(
            routine=routine,
            time_ns=session.stats.elapsed_ns,
            bandwidth_bytes=session.bandwidth_bytes_per_s(),
            prefetch_fraction=session.stats.memory.prefetch_fraction,
            machine_name=self.machine.name,
        )

    def reports(self) -> List[RoutineReport]:
        """Per-routine bandwidth reports, in insertion order."""
        return [self.report(name) for name in self._sessions]

    def whole_program_bandwidth(self) -> float:
        """Time-weighted whole-program bandwidth (the misleading average).

        Provided to demonstrate the paper's warning: two routines with
        very different behaviour average into a number that describes
        neither.
        """
        total_bytes = 0.0
        total_time = 0.0
        for session in self._sessions.values():
            total_bytes += session.bandwidth_bytes_per_s() * session.stats.elapsed_ns
            total_time += session.stats.elapsed_ns
        return total_bytes / total_time if total_time else 0.0

    def render(self) -> str:
        """The default-output table, one line per routine."""
        lines = [
            f"CrayPat-substitute profile on {self.machine.name} "
            f"(peak {self.machine.peak_bw_gbs:.0f} GB/s)",
            f"{'routine':<24s} {'time':>12s}  {'bandwidth':>16s}  prefetch",
        ]
        for report in self.reports():
            lines.append(report.render(self.machine.memory.peak_bw_bytes))
        return "\n".join(lines)
