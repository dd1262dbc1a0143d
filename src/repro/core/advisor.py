"""Iterative advisor: the Figure-1 loop run to convergence.

The paper's recipe is explicitly iterative — "the process may be
repeated to consider another optimization depending upon changes in
MSHRQ occupancy and observed performance".  :class:`Advisor` automates
that loop over a workload model:

1. predict the current version's operating point (bandwidth, latency,
   ``n_avg``) with the Little's-law solver,
2. run the recipe, take the highest-graded recommendation the workload
   can actually realize (its effect table knows which transforms the
   code structure admits),
3. apply it, keep it if the predicted speedup clears a threshold,
   otherwise roll back and try the next recommendation,
4. stop when the recipe says stop, nothing realizable remains, or an
   iteration cap is reached.

The result records the full trajectory, mirroring the "Source" columns
of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import OptimizationError
from ..machines.spec import MachineSpec
from ..optim.transforms import WorkloadState, lookup_effect
from ..perfmodel.runtime import RuntimeModel, RuntimePrediction
from .classify import Classification
from .recipe import RecipeContext

if TYPE_CHECKING:  # pragma: no cover - break the workloads<->core cycle
    from ..workloads.base import Workload
from .mlp import MlpResult
from .recipe import Recipe, RecipeDecision, Recommendation
from .optimizations import OptimizationKind

#: Keep a transform only if it is predicted to clear this speedup.
KEEP_THRESHOLD = 1.04


@dataclass(frozen=True)
class AdvisorStep:
    """One accepted iteration of the loop."""

    source_label: str
    step: str
    decision: RecipeDecision
    predicted_speedup: float
    prediction_after: RuntimePrediction


@dataclass(frozen=True)
class AdvisorResult:
    """The full optimization trajectory for one workload on one machine."""

    workload: str
    machine: str
    steps: Tuple[AdvisorStep, ...]
    final_state: WorkloadState
    final_decision: RecipeDecision
    stop_reason: str
    #: Prediction for the final state (carries ``solved_fast`` /
    #: ``fallback_reason`` provenance when the advisor ran in fast mode).
    final_prediction: Optional[RuntimePrediction] = None

    @property
    def cumulative_speedup(self) -> float:
        """Product of all accepted steps' predicted speedups."""
        total = 1.0
        for step in self.steps:
            total *= step.predicted_speedup
        return total

    def render(self) -> str:
        """Human-readable trajectory summary."""
        lines = [
            f"Advisor trajectory - {self.workload} on {self.machine}",
        ]
        for step in self.steps:
            lines.append(
                f"  {step.source_label:<24s} -> {step.step:<12s} "
                f"(n_avg {step.decision.mlp.n_avg:5.2f}, "
                f"{step.decision.status.value:<9s}) "
                f"predicted {step.predicted_speedup:.2f}x"
            )
        lines.append(
            f"  final: {self.final_state.label} "
            f"(cumulative {self.cumulative_speedup:.2f}x); stop: {self.stop_reason}"
        )
        if self.final_prediction is not None:
            if self.final_prediction.solved_fast:
                lines.append("  solved analytically (closed-form fast path)")
            elif self.final_prediction.fallback_reason:
                lines.append(
                    "  fell back to the full solver: "
                    f"{self.final_prediction.fallback_reason}"
                )
        return "\n".join(lines)


def _step_for_recommendation(
    rec: Recommendation, state: WorkloadState, machine: MachineSpec
) -> Optional[str]:
    """Translate a recipe recommendation into a named transform step."""
    kind = rec.kind
    if kind is OptimizationKind.VECTORIZATION:
        return "vectorize"
    if kind is OptimizationKind.SMT:
        next_ways = state.smt_ways * 2
        if next_ways > machine.smt_ways:
            return None
        return f"smt{next_ways}"
    if kind is OptimizationKind.SW_PREFETCH_L2:
        return "l2_prefetch"
    if kind is OptimizationKind.SW_PREFETCH_L1:
        return "sw_prefetch"
    if kind is OptimizationKind.LOOP_TILING:
        return "loop_tiling"
    if kind is OptimizationKind.LOOP_FUSION:
        return "loop_fusion"
    if kind is OptimizationKind.LOOP_DISTRIBUTION:
        return "loop_distribution"
    if kind is OptimizationKind.UNROLL_AND_JAM:
        return "unroll_and_jam"
    return None


class Advisor:
    """Runs the recipe loop automatically over a workload model."""

    def __init__(
        self,
        workload: "Workload",
        machine: MachineSpec,
        *,
        max_iterations: int = 8,
        fast: bool = False,
    ) -> None:
        self.workload = workload
        self.machine = machine
        self.model = RuntimeModel(machine, fast=fast)
        self.recipe = Recipe(machine)
        self.max_iterations = max_iterations

    def _decide(self, state: WorkloadState, pred: RuntimePrediction) -> RecipeDecision:
        classification = Classification(
            pattern=state.pattern,
            prefetch_fraction=1.0 - state.random_fraction,
            rationale="workload model",
        )
        mlp = MlpResult(
            bandwidth_bytes=pred.point.bandwidth_bytes,
            utilization=pred.point.bandwidth_bytes / self.machine.memory.peak_bw_bytes,
            latency_ns=pred.point.latency_ns,
            n_avg=pred.point.n_observed,
            n_total=pred.point.n_observed * self.machine.active_cores,
            cores=self.machine.active_cores,
            line_bytes=self.machine.line_bytes,
        )
        context = RecipeContext(
            applied=frozenset(state.applied_kinds),
            smt_ways_used=state.smt_ways,
        )
        return self.recipe.decide(mlp, classification, context)

    def run(self) -> AdvisorResult:
        """Iterate measure → recommend → apply until the recipe stops."""
        state = self.workload.base_state(self.machine)
        prediction = self.model.predict(state)
        steps: List[AdvisorStep] = []
        stop_reason = "iteration cap reached"

        for _ in range(self.max_iterations):
            decision = self._decide(state, prediction)
            if decision.stop:
                stop_reason = "recipe says stop"
                break

            accepted = False
            for rec in decision.recommendations:
                if not rec.benefit.expects_speedup:
                    continue
                step = _step_for_recommendation(rec, state, self.machine)
                if step is None or step in state.applied:
                    continue
                try:
                    effect = lookup_effect(
                        self.workload.effects, step, self.machine.name
                    )
                except OptimizationError:
                    continue  # code structure does not admit this transform
                candidate = effect.apply(state, step)
                candidate_pred = self.model.predict(candidate)
                speedup = candidate_pred.speedup_over(prediction)
                if speedup < KEEP_THRESHOLD:
                    continue  # tried it, rolled it back
                steps.append(
                    AdvisorStep(
                        source_label=state.label,
                        step=step,
                        decision=decision,
                        predicted_speedup=speedup,
                        prediction_after=candidate_pred,
                    )
                )
                state, prediction = candidate, candidate_pred
                accepted = True
                break

            if not accepted:
                stop_reason = "no realizable recommendation pays off"
                break
        final_decision = self._decide(state, prediction)
        return AdvisorResult(
            workload=self.workload.name,
            machine=self.machine.name,
            steps=tuple(steps),
            final_state=state,
            final_decision=final_decision,
            stop_reason=stop_reason,
            final_prediction=prediction,
        )
