"""Execution-time model over solved operating points.

For the memory-phase routines the paper studies, the runtime of one
version is ``time ∝ effective_traffic / achieved_bandwidth``; the
speedup from an optimization is therefore

    speedup = (BW_after / BW_before) * (traffic_before / traffic_after)

The first factor is what MLP-increasing optimizations buy (more
outstanding requests → more bandwidth); the second is what
request-reducing optimizations buy (tiling) and what SMT cache
contention *costs* (the paper's MiniGhost/SNAP observations).  Very
compute-bound codes (CoMD) need no separate compute term: their low
expressible MLP already encodes the scarcity of memory requests, and
the paper's own CoMD rows satisfy speedup ≈ bandwidth ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..optim.transforms import WorkloadState
from .queueing import solve_operating_point_fast, state_eligibility
from .solver import SolvedPoint, solve_operating_point


@dataclass(frozen=True)
class RuntimePrediction:
    """Predicted observables for one workload state."""

    state: WorkloadState
    point: SolvedPoint
    #: Relative execution time (1.0 ≙ base traffic at base bandwidth).
    time_relative: float
    #: True when the point came from the ``--fast`` route.
    solved_fast: bool = False
    #: Why a fast-mode query fell back to the full solver ("" if it
    #: did not fall back).
    fallback_reason: str = ""

    @property
    def bandwidth_gbs(self) -> float:
        """Predicted bandwidth in GB/s."""
        return self.point.bandwidth_gbs

    @property
    def latency_ns(self) -> float:
        """Predicted loaded latency in ns."""
        return self.point.latency_ns

    @property
    def n_avg(self) -> float:
        """Predicted per-core MSHR occupancy."""
        return self.point.n_observed

    def speedup_over(self, other: "RuntimePrediction") -> float:
        """Speedup of *this* version relative to ``other``."""
        if self.time_relative <= 0:
            raise ConfigurationError("time must be positive")
        return other.time_relative / self.time_relative


class RuntimeModel:
    """Predicts runtime observables for workload states on one machine."""

    def __init__(
        self,
        machine: MachineSpec,
        *,
        curve: Optional[LatencyProfile] = None,
        fast: bool = False,
    ) -> None:
        self.machine = machine
        self.curve = curve
        #: Route eligible queries through ``solve_operating_point_fast``
        #: (the same solve over ``curve``, tagged ``solved_fast``);
        #: ineligible states fall back to the solver with the reason
        #: recorded on the prediction.
        self.fast = fast

    def predict(self, state: WorkloadState) -> RuntimePrediction:
        """Solve the state's operating point and derive relative time."""
        if state.machine_name != self.machine.name:
            raise ConfigurationError(
                f"state is for {state.machine_name!r}, model for "
                f"{self.machine.name!r}"
            )
        solved_fast = False
        fallback_reason = ""
        if self.fast:
            decision = state_eligibility(state)
            if decision.eligible:
                point = solve_operating_point_fast(
                    self.machine,
                    state.demand_mlp,
                    state.binding_level,
                    curve=self.curve,
                )
                solved_fast = True
            else:
                fallback_reason = decision.reason
        if not solved_fast:
            point = solve_operating_point(
                self.machine,
                state.demand_mlp,
                state.binding_level,
                curve=self.curve,
            )
        # time ∝ traffic / bandwidth, normalized so base traffic (1.0)
        # at 1 GB/s would take 1e9 relative units; only ratios matter.
        time_relative = state.traffic_factor / point.bandwidth_bytes
        return RuntimePrediction(
            state=state,
            point=point,
            time_relative=time_relative,
            solved_fast=solved_fast,
            fallback_reason=fallback_reason,
        )
