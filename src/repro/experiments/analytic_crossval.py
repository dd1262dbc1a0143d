"""Cross-validation of the ``--fast`` probe profile vs the full sweep.

The ``--fast`` mode answers characterize queries from five simulator
probes (:func:`repro.perfmodel.queueing.calibrate_from_probes`) instead
of a full X-Mem sweep.  This experiment quantifies what that shortcut
costs: for every paper workload × machine cell it solves the *same*
operating-point query twice —

* **reference**: the operating-point solver over the machine's full
  X-Mem-style simulator-measured latency profile (the slow, honest
  route ``--fast`` replaces), and
* **analytic**: the same solver over the five-probe profile (a handful
  of simulator runs, then pure algebra)

— and reports the relative bandwidth / latency / occupancy errors.
Cells whose fast-path preconditions fail (SMT contention,
prefetch-dominated mixes, pathological traces) are not graded on error:
they are exactly the cells ``--fast`` hands back to the simulator, and
the table instead records the stated fallback reason.  The in-bound
verdict uses the documented ceilings
:data:`~repro.perfmodel.queueing.ANALYTIC_BW_ERROR_BOUND` /
:data:`~repro.perfmodel.queueing.ANALYTIC_LAT_ERROR_BOUND` — the same
numbers that widen the ``--fast`` error bars — so CI failing this table
means the published bars are no longer honest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from ..machines.registry import paper_machines
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..perfmodel.queueing import (
    ANALYTIC_BW_ERROR_BOUND,
    ANALYTIC_LAT_ERROR_BOUND,
    calibrate_from_probes,
    solve_operating_point_fast,
    state_eligibility,
    trace_eligibility,
)
from ..perfmodel.solver import solve_operating_point
from ..workloads import ALL_WORKLOADS
from ..workloads.base import TraceSpec, Workload
from ..xmem.runner import XMemConfig, XMemRunner


@dataclass(frozen=True)
class AnalyticCrossValRow:
    """One workload × machine analytic-vs-simulator comparison."""

    workload: str
    machine: str
    #: Whether the fast-path preconditions held for this cell.
    eligible: bool
    #: Stated fallback reason when ineligible ("" when eligible).
    fallback_reason: str
    sim_bandwidth_gbs: float
    sim_latency_ns: float
    analytic_bandwidth_gbs: float
    analytic_latency_ns: float
    bandwidth_rel_error: float
    latency_rel_error: float
    n_avg_rel_error: float

    @property
    def within_bound(self) -> bool:
        """Eligible cells must sit inside the documented error bounds.

        Ineligible cells pass vacuously: ``--fast`` never answers them
        analytically, so no bound applies — but they must carry a
        stated reason (checked separately by :func:`table_ok`).
        """
        if not self.eligible:
            return True
        return (
            self.bandwidth_rel_error <= ANALYTIC_BW_ERROR_BOUND
            and self.latency_rel_error <= ANALYTIC_LAT_ERROR_BOUND
        )


def _validate_cell(
    workload: Workload,
    machine: MachineSpec,
    probes: LatencyProfile,
    profile: LatencyProfile,
    sim_cores: int,
) -> AnalyticCrossValRow:
    """Grade one workload × machine cell (both profiles precomputed)."""
    state = workload.base_state(machine)
    decision = state_eligibility(state)
    if decision.eligible:
        trace = workload.generate_trace(
            machine,
            spec=TraceSpec(threads=sim_cores),
        )
        decision = trace_eligibility(trace)

    reference = solve_operating_point(
        machine, state.demand_mlp, state.binding_level, curve=profile
    )
    analytic = solve_operating_point_fast(
        machine, state.demand_mlp, state.binding_level, curve=probes
    )
    bw_err = (
        abs(analytic.bandwidth_bytes - reference.bandwidth_bytes)
        / reference.bandwidth_bytes
    )
    lat_err = abs(analytic.latency_ns - reference.latency_ns) / reference.latency_ns
    n_err = abs(analytic.n_observed - reference.n_observed) / max(
        reference.n_observed, 1e-9
    )
    return AnalyticCrossValRow(
        workload=workload.name,
        machine=machine.name,
        eligible=decision.eligible,
        fallback_reason=decision.reason,
        sim_bandwidth_gbs=reference.bandwidth_gbs,
        sim_latency_ns=reference.latency_ns,
        analytic_bandwidth_gbs=analytic.bandwidth_gbs,
        analytic_latency_ns=analytic.latency_ns,
        bandwidth_rel_error=bw_err,
        latency_rel_error=lat_err,
        n_avg_rel_error=n_err,
    )


def crossval_analytic(
    *,
    machines: Optional[Sequence[MachineSpec]] = None,
    workloads: Optional[Sequence[Workload]] = None,
    xmem_config: Optional[XMemConfig] = None,
) -> List[AnalyticCrossValRow]:
    """Build the full analytic-vs-simulator error table.

    Per machine, the expensive parts — the probe calibration and the
    full X-Mem profile — are computed once and shared by every
    workload row; the per-cell work is then two algebraic solves.  All
    simulator runs go through the content-addressed SimStats cache, so
    a warm re-run of the whole table is seconds, not minutes.
    """
    config = xmem_config or XMemConfig()
    rows: List[AnalyticCrossValRow] = []
    for machine in machines or paper_machines():
        cells = [
            w for w in workloads or ALL_WORKLOADS if machine.name in w.machines()
        ]
        if not cells:
            continue
        probes = calibrate_from_probes(
            machine,
            sim_cores=config.sim_cores,
            accesses_per_thread=config.accesses_per_thread,
        )
        profile = XMemRunner(machine, config).characterize()
        rows.extend(
            _validate_cell(workload, machine, probes, profile, config.sim_cores)
            for workload in cells
        )
    return rows


def table_ok(rows: Sequence[AnalyticCrossValRow]) -> bool:
    """CI verdict: every eligible cell in bound, every fallback reasoned."""
    return all(
        row.within_bound and (row.eligible or row.fallback_reason)
        for row in rows
    )


def render_analytic_crossval(rows: Sequence[AnalyticCrossValRow]) -> str:
    """Text table of analytic-vs-simulator rows."""
    lines = [
        f"{'workload':<11s} {'machine':<7s} {'sim GB/s':>9s} {'fast GB/s':>9s} "
        f"{'bw err':>7s} {'lat err':>7s}  verdict"
    ]
    for row in rows:
        if not row.eligible:
            verdict = f"fallback: {row.fallback_reason}"
        elif row.within_bound:
            verdict = "in bound"
        else:
            verdict = "OUT OF BOUND"
        lines.append(
            f"{row.workload:<11s} {row.machine:<7s} "
            f"{row.sim_bandwidth_gbs:>9.1f} {row.analytic_bandwidth_gbs:>9.1f} "
            f"{row.bandwidth_rel_error:>6.1%} {row.latency_rel_error:>6.1%}  "
            f"{verdict}"
        )
    eligible = [r for r in rows if r.eligible]
    if eligible:
        lines.append(
            f"eligible cells: {len(eligible)}/{len(rows)}; worst bw err "
            f"{max(r.bandwidth_rel_error for r in eligible):.1%} "
            f"(bound {ANALYTIC_BW_ERROR_BOUND:.0%}), worst lat err "
            f"{max(r.latency_rel_error for r in eligible):.1%} "
            f"(bound {ANALYTIC_LAT_ERROR_BOUND:.0%})"
        )
    return "\n".join(lines)


def rows_to_json(rows: Sequence[AnalyticCrossValRow]) -> str:
    """Machine-readable form of the table (the CI artifact payload)."""
    return json.dumps(
        {
            "bounds": {
                "bandwidth_rel_error": ANALYTIC_BW_ERROR_BOUND,
                "latency_rel_error": ANALYTIC_LAT_ERROR_BOUND,
            },
            "rows": [
                {**asdict(row), "within_bound": row.within_bound} for row in rows
            ],
        },
        indent=2,
    )
