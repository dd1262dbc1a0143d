"""Workload protocol: the six paper applications as model objects.

Each workload (paper Table II) is represented two ways, per DESIGN.md:

* an **analytic descriptor** — per-machine base calibration
  (:class:`MachineCalibration`) plus an effect table describing how each
  optimization step changes the state.  The base ``demand_mlp`` values
  are the per-core MLP the paper *measured* for the unoptimized codes
  (its Tables IV–IX base rows); the effect factors encode code-structure
  arguments from the paper (how well a gather loop vectorizes, how much
  cache contention SMT causes, ...).  The performance solver turns these
  into bandwidth/latency/occupancy/speedup predictions — those outputs,
  not the calibrated inputs, are what the experiments validate;

* a **trace generator** — a statistically faithful access-pattern
  generator for the discrete-event simulator, used for the non-circular
  validations (prefetch-coverage classification, MSHR-stall migration,
  Little's-law identity).

The row plan (:attr:`MachineCalibration.row_plan`) mirrors the paper's
table structure: each entry is ``(source_steps, step_applied)`` with
``None`` marking a terminal row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from ..core.classify import AccessPattern
from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..optim.transforms import EffectTable, WorkloadState, lookup_effect
from ..sim.coltrace import ColumnarTrace

#: One table row: (steps defining the Source version, step applied or None).
RowPlan = Tuple[Tuple[Tuple[str, ...], Optional[str]], ...]


@dataclass(frozen=True)
class MachineCalibration:
    """Per-machine base characterization of one workload routine."""

    #: Per-core expressible MLP of the unoptimized code (paper base row).
    demand_mlp: float
    #: Which MSHR file binds the base version (1 random / 2 streaming).
    binding_level: int
    #: The paper's experiment plan for this machine.
    row_plan: RowPlan

    def __post_init__(self) -> None:
        if self.demand_mlp <= 0:
            raise ConfigurationError("demand_mlp must be positive")
        if self.binding_level not in (1, 2):
            raise ConfigurationError("binding_level must be 1 or 2")


@dataclass(frozen=True)
class TraceSpec:
    """Size knobs for trace generation (kept small for Python speed)."""

    threads: int = 2
    accesses_per_thread: int = 4000
    seed: int = 12345


class Workload:
    """One paper application: analytic descriptor + trace generator.

    Subclasses implement :meth:`generate_trace`; everything else is
    data-driven from the constructor arguments.
    """

    def __init__(
        self,
        *,
        name: str,
        routine: str,
        description: str,
        problem_size: str,
        pattern: AccessPattern,
        random_fraction: float,
        calibrations: Mapping[str, MachineCalibration],
        effects: EffectTable,
    ) -> None:
        if not 0.0 <= random_fraction <= 1.0:
            raise ConfigurationError("random_fraction must be in [0,1]")
        self.name = name
        self.routine = routine
        self.description = description
        self.problem_size = problem_size
        self.pattern = pattern
        self.random_fraction = random_fraction
        self.calibrations = dict(calibrations)
        self.effects = effects

    # -- analytic side -----------------------------------------------------------

    def calibration(self, machine_name: str) -> MachineCalibration:
        """Per-machine base characterization (raises for unknown machines)."""
        try:
            return self.calibrations[machine_name]
        except KeyError:
            raise ConfigurationError(
                f"workload {self.name!r} has no calibration for {machine_name!r}"
            ) from None

    def base_state(self, machine: MachineSpec) -> WorkloadState:
        """The unoptimized version's analytic state on ``machine``."""
        cal = self.calibration(machine.name)
        return WorkloadState(
            workload=self.name,
            machine_name=machine.name,
            routine=self.routine,
            pattern=self.pattern,
            random_fraction=self.random_fraction,
            binding_level=cal.binding_level,
            demand_mlp=cal.demand_mlp,
        )

    def state_for(self, machine: MachineSpec, steps: Sequence[str]) -> WorkloadState:
        """State after applying ``steps`` in order to the base version."""
        state = self.base_state(machine)
        for step in steps:
            effect = lookup_effect(self.effects, step, machine.name)
            state = effect.apply(state, step)
        return state

    def row_plan(self, machine_name: str) -> RowPlan:
        """The paper's experiment plan for ``machine_name``."""
        return self.calibration(machine_name).row_plan

    def machines(self) -> Tuple[str, ...]:
        """Machines this workload is calibrated for (paper: all three)."""
        return tuple(self.calibrations)

    # -- simulator side -----------------------------------------------------------

    def generate_trace(
        self,
        machine: MachineSpec,
        *,
        steps: Sequence[str] = (),
        spec: Optional[TraceSpec] = None,
    ) -> ColumnarTrace:
        """Access trace of this routine (optionally optimized) for the DES."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<Workload {self.name} routine={self.routine}>"
