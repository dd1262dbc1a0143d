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
    def helped(self) -> Optional[bool]:
        """Did the step's (model) speedup reach :data:`SPEEDUP_HELPED`?"""
        if self.speedup is None:
            return None
        return self.speedup >= SPEEDUP_HELPED

    @property
    def recipe_agrees(self) -> Optional[bool]:
        """Did the recipe's expectation match the (model) outcome?"""
        if self.helped is None or self.recipe_benefit is None:
            return None
        return self.recipe_expects_benefit == self.helped

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
    """Runs a workload's full experiment plan on one machine.

    Every version (a tuple of applied steps) is built, solved and
    judged by the recipe through this one object, and each once:
    :meth:`state`, :meth:`predict` and :meth:`decide` (the Figure-1
    flowchart) memoize per version.  The paper tables (:meth:`run`) and the iterative
    :class:`~repro.core.advisor.Advisor` both walk it.  ``model``
    defaults to the machine's calibrated curve on the full solver.
    """

    def __init__(
        self,
        workload: Workload,
        machine: MachineSpec,
        *,
        model: Optional[RuntimeModel] = None,
    ) -> None:
        self.workload = workload
        self.machine = machine
        self.model = model if model is not None else RuntimeModel(machine)
        self.recipe = Recipe(machine)
        self._state_cache: Dict[Tuple[str, ...], WorkloadState] = {}
        self._pred_cache: Dict[Tuple[str, ...], RuntimePrediction] = {}
        self._decision_cache: Dict[Tuple[str, ...], RecipeDecision] = {}

    # -- one version: state, prediction, decision ---------------------------------

    def state(self, steps: Sequence[str]) -> WorkloadState:
        """Memoized workload state after ``steps``: the memoized state
        one step shorter, with the last step applied.

        Raises :class:`~repro.errors.OptimizationError` when the
        workload's effect table does not admit a step.
        """
        key = tuple(steps)
        if key not in self._state_cache:
            self._state_cache[key] = (
                self.workload.apply_step(self.state(key[:-1]), key[-1])
                if key
                else self.workload.base_state(self.machine)
            )
        return self._state_cache[key]

    def predict(self, steps: Sequence[str]) -> RuntimePrediction:
        """Memoized runtime prediction for the version after ``steps``."""
        key = tuple(steps)
        if key not in self._pred_cache:
            self._pred_cache[key] = self.model.predict(self.state(key))
        return self._pred_cache[key]

    def decide(self, steps: Sequence[str]) -> RecipeDecision:
        """Memoized recipe verdict on the version after ``steps``.

        The version's predicted operating point stands in for the
        measured one (Eq. 2's inputs), and its access pattern and
        applied steps for the classification and the Source column.
        """
        key = tuple(steps)
        if key not in self._decision_cache:
            self._decision_cache[key] = self._decide(key)
        return self._decision_cache[key]

    def _decide(self, steps: Tuple[str, ...]) -> RecipeDecision:
        state = self.state(steps)
        point = self.predict(steps).point
        machine = self.machine
        classification = Classification(
            pattern=state.pattern,
            prefetch_fraction=1.0 - state.random_fraction,
            rationale=f"workload model: {state.pattern.value} "
            f"(random fraction {state.random_fraction:.0%})",
        )
        mlp = MlpResult(
            bandwidth_bytes=point.bandwidth_bytes,
            utilization=point.bandwidth_bytes / machine.memory.peak_bw_bytes,
            latency_ns=point.latency_ns,
            n_avg=point.n_observed,
            n_total=point.n_observed * machine.active_cores,
            cores=machine.active_cores,
            line_bytes=machine.line_bytes,
        )
        context = RecipeContext(
            applied=frozenset(state.applied_kinds),
            smt_ways_used=state.smt_ways,
        )
        return self.recipe.decide(mlp, classification, context)

    # -- running -------------------------------------------------------------------

    def run_row(
        self, source_steps: Sequence[str], step: Optional[str]
    ) -> CaseStudyResult:
        """Evaluate one planned experiment row."""
        source = tuple(source_steps)
        pred = self.predict(source)
        decision = self.decide(source)
        speedup: Optional[float] = None
        benefit: Optional[Benefit] = None
        if step is not None:
            after = self.predict(source + (step,))
            speedup = after.speedup_over(pred)
            benefit = decision.benefit_of(kind_of_step(step))
        return CaseStudyResult(
            workload=self.workload.name,
            machine=self.machine.name,
            source_label=self.state(source).label,
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
