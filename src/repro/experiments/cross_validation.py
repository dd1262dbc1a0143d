"""Cross-validation of the two workload representations (DESIGN.md §5).

Each paper workload exists twice in this library: as an **analytic
descriptor** (calibrated demand MLP, binding level, pattern) and as a
**trace generator** for the discrete-event simulator.  The table
reproductions use the former; this experiment checks the latter agrees
with it *without any shared calibration*:

* the simulator's measured prefetch fraction must classify the routine
  onto the same binding MSHR file the descriptor declares (random → L1,
  streaming → L2),
* the relative occupancy signature must match: memory-bound workloads
  load their binding file, CoMD's compute-bound signature stays near
  empty, streaming workloads show L2 > L1 occupancy.

Disagreement here would mean the case-study tables rest on an access
pattern the micro-architecture model does not actually produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.classify import classify_from_prefetch_fraction
from ..machines.registry import paper_machines
from ..machines.spec import MachineSpec
from ..perf.cache import cached_run_trace
from ..perf.parallel import fan_out
from ..sim.hierarchy import SimConfig
from ..sim.stats import SimStats
from ..workloads import ALL_WORKLOADS
from ..workloads.base import TraceSpec, Workload


@dataclass(frozen=True)
class CrossValidationRow:
    """One workload × machine simulator-vs-descriptor comparison."""

    workload: str
    machine: str
    declared_binding: int
    measured_prefetch_fraction: float
    classified_binding: int
    l1_occupancy: float
    l2_occupancy: float
    binding_agrees: bool
    #: At near-empty files the binding question never changes a decision
    #: (CoMD: n ~ 0.2 against 10+ entries), so disagreement is benign.
    binding_immaterial: bool
    signature_ok: bool

    @property
    def ok(self) -> bool:
        """Overall verdict: binding agrees (or is immaterial) and the occupancy signature matches."""
        return (self.binding_agrees or self.binding_immaterial) and self.signature_ok


def _signature_ok(
    workload: Workload, machine: MachineSpec, stats: SimStats
) -> bool:
    """Qualitative occupancy signature for this workload class."""
    l1 = stats.avg_occupancy(1)
    l2 = stats.avg_occupancy(2)
    if max(l1, l2) < 0.3 * machine.l1.mshrs:
        # Near-empty files (CoMD everywhere; SNAP on A64FX's huge
        # bandwidth): the compute-dominated signature, by definition.
        return True
    if workload.name == "comd":
        # Compute bound: both files nearly idle.
        return l1 < 0.5 * machine.l1.mshrs and l2 < 0.5 * machine.l2.mshrs
    if workload.calibration(machine.name).binding_level == 1:
        # Random-dominated: the L1 file carries the outstanding misses.
        return l1 >= 0.3 * machine.l1.mshrs
    # Streaming: prefetches put the weight on the L2 file.
    return l2 > l1


def _validate_cell(
    args: Tuple[Workload, MachineSpec, int, int]
) -> CrossValidationRow:
    """One workload × machine cell; picklable unit for fan-out workers."""
    workload, machine, accesses_per_thread, sim_cores = args
    trace = workload.generate_trace(
        machine,
        spec=TraceSpec(threads=sim_cores, accesses_per_thread=accesses_per_thread),
    )
    stats = cached_run_trace(
        trace,
        SimConfig(machine=machine, sim_cores=sim_cores, window_per_core=14),
    )
    declared = workload.calibration(machine.name).binding_level
    classification = classify_from_prefetch_fraction(
        stats.memory.prefetch_fraction
    )
    l1_occ = stats.avg_occupancy(1)
    l2_occ = stats.avg_occupancy(2)
    immaterial = max(l1_occ, l2_occ) < 0.3 * machine.l1.mshrs
    return CrossValidationRow(
        workload=workload.name,
        machine=machine.name,
        declared_binding=declared,
        measured_prefetch_fraction=stats.memory.prefetch_fraction,
        classified_binding=classification.binding_level,
        l1_occupancy=l1_occ,
        l2_occupancy=l2_occ,
        binding_agrees=classification.binding_level == declared,
        binding_immaterial=immaterial,
        signature_ok=_signature_ok(workload, machine, stats),
    )


def cross_validate(
    *,
    machines: Optional[Sequence[MachineSpec]] = None,
    workloads: Optional[Sequence[Workload]] = None,
    accesses_per_thread: int = 2200,
    sim_cores: int = 2,
    jobs: Optional[int] = None,
) -> List[CrossValidationRow]:
    """Run every workload's base trace on every machine and compare.

    The (workload, machine) grid cells are independent simulations;
    ``jobs > 1`` distributes them over worker processes while keeping
    the row order identical to the serial nested loop.  Every cell's
    simulation is stored in the sim cache, so rerunning an interrupted
    grid only simulates the cells it had not finished.
    """
    cells = [
        (workload, machine, accesses_per_thread, sim_cores)
        for workload in (workloads or ALL_WORKLOADS)
        for machine in (machines or paper_machines())
        if machine.name in workload.machines()
    ]
    return fan_out(_validate_cell, cells, jobs=jobs)


def render_cross_validation(rows: Sequence[CrossValidationRow]) -> str:
    """Text table of cross-validation rows."""
    lines = [
        f"{'workload':<11s} {'machine':<7s} {'pf frac':>8s} "
        f"{'binding (decl/sim)':>19s} {'L1 occ':>7s} {'L2 occ':>7s}  verdict"
    ]
    for row in rows:
        if row.ok and not row.binding_agrees:
            verdict = "ok (binding immaterial)"
        else:
            verdict = "ok" if row.ok else "MISMATCH"
        lines.append(
            f"{row.workload:<11s} {row.machine:<7s} "
            f"{row.measured_prefetch_fraction:>7.0%} "
            f"{f'L{row.declared_binding}/L{row.classified_binding}':>19s} "
            f"{row.l1_occupancy:>7.2f} {row.l2_occupancy:>7.2f}  {verdict}"
        )
    return "\n".join(lines)
