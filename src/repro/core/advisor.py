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

Every version is built, solved and judged by
:class:`~repro.perfmodel.casestudy.CaseStudyRunner`, the evaluator that
regenerates the paper tables, so a trajectory step and a table row for
the same version agree on every number.  The result records the full
trajectory, mirroring the "Source" columns of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import OptimizationError
from ..machines.spec import MachineSpec
from .recipe import RecipeDecision

if TYPE_CHECKING:  # pragma: no cover - break the optim/perfmodel<->core cycles
    from ..optim.transforms import WorkloadState
    from ..perfmodel.runtime import RuntimePrediction
    from ..workloads.base import Workload

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
        # Imported here: perfmodel imports core, whose package init
        # imports this module.
        from ..perfmodel.casestudy import CaseStudyRunner
        from ..perfmodel.runtime import RuntimeModel

        self.workload = workload
        self.machine = machine
        self.runner = CaseStudyRunner(
            workload, machine, model=RuntimeModel(machine, fast=fast)
        )
        self.max_iterations = max_iterations

    def _take(
        self, applied: Tuple[str, ...], decision: RecipeDecision
    ) -> Optional[AdvisorStep]:
        """The first recommended step the workload admits that clears
        :data:`KEEP_THRESHOLD`; the others are tried and rolled back."""
        from ..optim.transforms import step_for_kind  # optim imports core

        runner = self.runner
        state = runner.state(applied)
        before = runner.predict(applied)
        for rec in decision.recommendations:
            if not rec.benefit.expects_speedup:
                continue
            step = step_for_kind(rec.kind, state, self.machine.smt_ways)
            if step is None or step in applied:
                continue
            try:
                after = runner.predict(applied + (step,))
            except OptimizationError:
                continue  # code structure does not admit this transform
            speedup = after.speedup_over(before)
            if speedup >= KEEP_THRESHOLD:
                return AdvisorStep(state.label, step, decision, speedup, after)
        return None

    def run(self) -> AdvisorResult:
        """Iterate measure → recommend → apply until the recipe stops."""
        runner = self.runner
        applied: Tuple[str, ...] = ()
        steps: List[AdvisorStep] = []
        stop_reason = "iteration cap reached"

        for _ in range(self.max_iterations):
            decision = runner.decide(applied)
            if decision.stop:
                stop_reason = "recipe says stop"
                break
            taken = self._take(applied, decision)
            if taken is None:
                stop_reason = "no realizable recommendation pays off"
                break
            steps.append(taken)
            applied += (taken.step,)
        return AdvisorResult(
            workload=self.workload.name,
            machine=self.machine.name,
            steps=tuple(steps),
            final_state=runner.state(applied),
            final_decision=runner.decide(applied),
            stop_reason=stop_reason,
            final_prediction=runner.predict(applied),
        )
