"""Experiments E-T1..E-T3: the paper's descriptive tables.

These tables are structural rather than measured: Table I is derived
from the counter facade's vendor event lists, Tables II and III from
the workload and machine models.  The experiment functions verify that
the derived structures match the paper's rows exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..counters.vendor import table1_matrix
from ..errors import ExperimentError
from ..machines.registry import paper_machines
from ..workloads import ALL_WORKLOADS
from .paperdata import (
    TABLE1_VISIBILITY,
    TABLE2_APPLICATIONS,
    TABLE3_PLATFORMS,
)


@dataclass(frozen=True)
class StructuralCheck:
    """One verified row of a descriptive table."""

    label: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        """Does the derived value match the paper's cell?"""
        return self.expected == self.actual


def check_table1() -> List[StructuralCheck]:
    """Derived counter-visibility matrix vs paper Table I."""
    derived = table1_matrix()
    checks: List[StructuralCheck] = []
    for row in TABLE1_VISIBILITY:
        got = derived.get(row.vendor)
        if got is None:
            raise ExperimentError(f"vendor {row.vendor!r} missing from matrix")
        checks.extend(
            [
                StructuralCheck(
                    f"{row.vendor}/stall_breakdown",
                    row.stall_breakdown,
                    got.stall_breakdown.value,
                ),
                StructuralCheck(
                    f"{row.vendor}/l1_mshrq_full",
                    row.l1_mshrq_full,
                    got.l1_mshrq_full_stalls.value,
                ),
                StructuralCheck(
                    f"{row.vendor}/l2_mshrq_full",
                    row.l2_mshrq_full,
                    got.l2_mshrq_full_stalls.value,
                ),
                StructuralCheck(
                    f"{row.vendor}/memory_latency",
                    row.memory_latency,
                    got.memory_latency.value,
                ),
            ]
        )
    return checks


def check_table2() -> List[StructuralCheck]:
    """Workload inventory vs paper Table II."""
    by_name = {w.name: w for w in ALL_WORKLOADS}
    checks: List[StructuralCheck] = []
    for app in TABLE2_APPLICATIONS:
        workload = by_name.get(app.name)
        if workload is None:
            raise ExperimentError(f"workload {app.name!r} not implemented")
        checks.append(
            StructuralCheck(f"{app.name}/routine", app.routine, workload.routine)
        )
        checks.append(
            StructuralCheck(
                f"{app.name}/problem_size", app.problem_size, workload.problem_size
            )
        )
    return checks


def check_table3() -> List[StructuralCheck]:
    """Machine models vs paper Table III."""
    by_name = {m.name: m for m in paper_machines()}
    checks: List[StructuralCheck] = []
    for plat in TABLE3_PLATFORMS:
        machine = by_name.get(plat.name)
        if machine is None:
            raise ExperimentError(f"machine {plat.name!r} not implemented")
        checks.extend(
            [
                StructuralCheck(
                    f"{plat.name}/cores", str(plat.cores), str(machine.cores)
                ),
                StructuralCheck(
                    f"{plat.name}/freq",
                    f"{plat.freq_ghz:.1f}",
                    f"{machine.frequency_ghz:.1f}",
                ),
                StructuralCheck(
                    f"{plat.name}/peak_bw",
                    f"{plat.peak_bw_gbs:.0f}",
                    f"{machine.peak_bw_gbs:.0f}",
                ),
                StructuralCheck(
                    f"{plat.name}/l1_mshrs",
                    str(plat.l1_mshrs),
                    str(machine.l1.mshrs),
                ),
                StructuralCheck(
                    f"{plat.name}/l2_mshrs",
                    str(plat.l2_mshrs),
                    str(machine.l2.mshrs),
                ),
            ]
        )
    return checks


def all_structural_checks() -> Dict[str, List[StructuralCheck]]:
    """Tables I-III in one call."""
    return {
        "table1": check_table1(),
        "table2": check_table2(),
        "table3": check_table3(),
    }
