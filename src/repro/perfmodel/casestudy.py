"""Case-study driver: regenerate one paper table (IV–IX) for one machine.

For each planned row (``source_steps``, ``step``) of a workload's
machine plan this driver:

1. builds the source version's analytic state and solves its operating
   point (bandwidth, loaded latency, n_avg) — the row's first columns;
2. asks the **recipe** what it expects from ``step`` *given only the
   measured state* (the paper's guidance-validation loop);
3. applies the transform and predicts the **speedup** — the row's last
   column;
4. records whether the recipe's expectation (benefit / no benefit)
   agrees with the predicted outcome.

The output rows are directly comparable to
:mod:`repro.experiments.paperdata`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.classify import Classification
from ..core.mlp import MlpResult
from ..core.recipe import Benefit, Recipe, RecipeContext, RecipeDecision
from ..core.report import CaseStudyRow
from ..errors import ExperimentError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..optim.transforms import WorkloadState, kind_of_step
from .runtime import RuntimeModel, RuntimePrediction

if TYPE_CHECKING:  # pragma: no cover - break the workloads<->core cycle
    from ..workloads.base import Workload

#: Observed speedups at or above this count as "the optimization helped".
SPEEDUP_HELPED = 1.05


@dataclass(frozen=True)
class CaseStudyResult:
    """One experiment (= one paper table row) fully evaluated."""

    workload: str
    machine: str
    source_label: str
    prediction: RuntimePrediction
    step: Optional[str]
    speedup: Optional[float]
    decision: RecipeDecision
    recipe_benefit: Optional[Benefit]

    @property
    def bw_gbs(self) -> float:
        """Source version's predicted bandwidth (GB/s)."""
        return self.prediction.bandwidth_gbs

    @property
    def latency_ns(self) -> float:
        """Source version's predicted loaded latency (ns)."""
        return self.prediction.latency_ns

    @property
    def n_avg(self) -> float:
        """Source version's predicted per-core MSHR occupancy."""
        return self.prediction.n_avg

    @property
    def recipe_expects_benefit(self) -> Optional[bool]:
        """Whether the recipe predicted a measurable speedup."""
        if self.recipe_benefit is None:
            return None
        return self.recipe_benefit.expects_speedup

    @property
    def recipe_agrees(self) -> Optional[bool]:
        """Did the recipe's expectation match the (model) outcome?"""
        if self.speedup is None or self.recipe_benefit is None:
            return None
        helped = self.speedup >= SPEEDUP_HELPED
        return self.recipe_expects_benefit == helped

    def to_table_row(self, peak_bw_gbs: float) -> CaseStudyRow:
        """Convert to a paper-style table row."""
        from ..optim.transforms import label_of_step

        return CaseStudyRow(
            proc=self.machine,
            source=self.source_label,
            bw_gbs=self.bw_gbs,
            bw_pct=100.0 * self.bw_gbs / peak_bw_gbs,
            latency_ns=self.latency_ns,
            n_avg=self.n_avg,
            opt_label=label_of_step(self.step) if self.step else "-",
            speedup=self.speedup,
        )


class CaseStudyRunner:
    """Runs a workload's full experiment plan on one machine."""

    def __init__(
        self,
        workload: Workload,
        machine: MachineSpec,
        *,
        curve: Optional[LatencyProfile] = None,
    ) -> None:
        self.workload = workload
        self.machine = machine
        self.model = RuntimeModel(machine, curve=curve)
        self.recipe = Recipe(machine)
        self._state_cache: Dict[Tuple[str, ...], WorkloadState] = {}
        self._pred_cache: Dict[Tuple[str, ...], RuntimePrediction] = {}

    # -- state/prediction memoization -------------------------------------------

    def state(self, steps: Sequence[str]) -> WorkloadState:
        """Memoized workload state after ``steps``."""
        key = tuple(steps)
        if key not in self._state_cache:
            self._state_cache[key] = self.workload.state_for(self.machine, key)
        return self._state_cache[key]

    def predict(self, steps: Sequence[str]) -> RuntimePrediction:
        """Memoized runtime prediction for the version after ``steps``."""
        key = tuple(steps)
        if key not in self._pred_cache:
            self._pred_cache[key] = self.model.predict(self.state(key))
        return self._pred_cache[key]

    # -- running -------------------------------------------------------------------

    def run_row(
        self, source_steps: Sequence[str], step: Optional[str]
    ) -> CaseStudyResult:
        """Evaluate one planned experiment row."""
        source = tuple(source_steps)
        pred = self.predict(source)
        state = self.state(source)

        classification = Classification(
            pattern=state.pattern,
            prefetch_fraction=1.0 - state.random_fraction,
            rationale=f"workload model: {state.pattern.value} "
            f"(random fraction {state.random_fraction:.0%})",
        )
        mlp = self._mlp_result(pred)
        context = RecipeContext(
            applied=frozenset(state.applied_kinds),
            smt_ways_used=state.smt_ways,
        )
        decision = self.recipe.decide(mlp, classification, context)

        speedup: Optional[float] = None
        benefit: Optional[Benefit] = None
        if step is not None:
            after = self.predict(source + (step,))
            speedup = after.speedup_over(pred)
            benefit = decision.benefit_of(kind_of_step(step))
        return CaseStudyResult(
            workload=self.workload.name,
            machine=self.machine.name,
            source_label=state.label,
            prediction=pred,
            step=step,
            speedup=speedup,
            decision=decision,
            recipe_benefit=benefit,
        )

    def run(self) -> List[CaseStudyResult]:
        """Run every planned row for this machine."""
        plan = self.workload.row_plan(self.machine.name)
        if not plan:
            raise ExperimentError(
                f"{self.workload.name} has no plan for {self.machine.name}"
            )
        return [self.run_row(source, step) for source, step in plan]

    # -- helpers --------------------------------------------------------------------

    def _mlp_result(self, pred: RuntimePrediction) -> MlpResult:
        machine = self.machine
        return MlpResult(
            bandwidth_bytes=pred.point.bandwidth_bytes,
            utilization=pred.point.bandwidth_bytes / machine.memory.peak_bw_bytes,
            latency_ns=pred.point.latency_ns,
            n_avg=pred.point.n_observed,
            n_total=pred.point.n_observed * machine.active_cores,
            cores=machine.active_cores,
            line_bytes=machine.line_bytes,
        )


def run_case_study(
    workload: Workload,
    machines: Sequence[MachineSpec],
) -> List[CaseStudyResult]:
    """Full paper-table reproduction: all machines, paper row order."""
    results: List[CaseStudyResult] = []
    for machine in machines:
        if machine.name not in workload.machines():
            continue
        results.extend(CaseStudyRunner(workload, machine).run())
    return results
