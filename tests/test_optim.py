"""Optimization transforms, step sequences and per-version decisions."""

import pytest

from repro.core import AccessPattern, OptimizationKind
from repro.errors import OptimizationError
from repro.optim import (
    TransformEffect,
    WorkloadState,
    kind_of_step,
    label_of_step,
    lookup_effect,
    step_for_kind,
)
from repro.perfmodel import CaseStudyRunner
from repro.workloads import get_workload
from repro.workloads.base import MachineCalibration, Workload


def _state(**overrides):
    defaults = dict(
        workload="w",
        machine_name="skl",
        routine="k",
        pattern=AccessPattern.RANDOM,
        random_fraction=0.9,
        binding_level=1,
        demand_mlp=5.0,
    )
    defaults.update(overrides)
    return WorkloadState(**defaults)


class TestStepMapping:
    def test_kind_of_step(self):
        assert kind_of_step("vectorize") is OptimizationKind.VECTORIZATION
        assert kind_of_step("smt2") is OptimizationKind.SMT
        assert kind_of_step("smt4") is OptimizationKind.SMT
        assert kind_of_step("l2_prefetch") is OptimizationKind.SW_PREFETCH_L2

    def test_unknown_step(self):
        with pytest.raises(OptimizationError):
            kind_of_step("quantum_tunneling")

    def test_labels(self):
        assert label_of_step("smt2") == "2-ht"
        assert label_of_step("loop_tiling") == "tiling"

    @pytest.mark.parametrize("kind", list(OptimizationKind), ids=lambda k: k.value)
    def test_every_kind_round_trips(self, kind, knl):
        """The advisor's step for a recipe kind maps back to that kind."""
        state = _state(machine_name="knl")
        assert kind_of_step(step_for_kind(kind, state, knl.smt_ways)) is kind


class TestWorkloadState:
    def test_base_label(self):
        assert _state().label == "base"

    def test_paper_style_label(self):
        state = _state(applied=("vectorize", "smt2"))
        assert state.label == "+ vect, 2-ht"

    def test_applied_kinds(self):
        state = _state(applied=("vectorize", "smt2"))
        assert state.applied_kinds == {
            OptimizationKind.VECTORIZATION,
            OptimizationKind.SMT,
        }

    @pytest.mark.parametrize(
        "bad",
        [
            dict(binding_level=3),
            dict(demand_mlp=0.0),
            dict(traffic_factor=0.0),
            dict(smt_ways=0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(OptimizationError):
            _state(**bad)


class TestTransformEffect:
    def test_demand_factor(self):
        effect = TransformEffect(demand_factor=2.0)
        after = effect.apply(_state(), "vectorize")
        assert after.demand_mlp == pytest.approx(10.0)
        assert after.applied == ("vectorize",)

    def test_demand_absolute_overrides_factor(self):
        effect = TransformEffect(demand_factor=2.0, demand_absolute=20.0)
        assert effect.apply(_state(), "l2_prefetch").demand_mlp == 20.0

    def test_traffic_factor_compounds(self):
        effect = TransformEffect(traffic_factor=0.5)
        once = effect.apply(_state(), "loop_tiling")
        assert once.traffic_factor == pytest.approx(0.5)

    def test_binding_shift(self):
        effect = TransformEffect(shift_binding_to=2)
        assert effect.apply(_state(), "l2_prefetch").binding_level == 2

    def test_smt_ways(self):
        effect = TransformEffect(smt_ways=2)
        assert effect.apply(_state(), "smt2").smt_ways == 2

    def test_double_application_rejected(self):
        effect = TransformEffect()
        state = effect.apply(_state(), "vectorize")
        with pytest.raises(OptimizationError):
            effect.apply(state, "vectorize")

    def test_effect_validation(self):
        with pytest.raises(OptimizationError):
            TransformEffect(demand_factor=0.0)
        with pytest.raises(OptimizationError):
            TransformEffect(shift_binding_to=3)


class TestLookup:
    def test_machine_specific_wins(self):
        table = {
            "vectorize": TransformEffect(demand_factor=1.5),
            "vectorize@knl": TransformEffect(demand_factor=3.0),
        }
        assert lookup_effect(table, "vectorize", "knl").demand_factor == 3.0
        assert lookup_effect(table, "vectorize", "skl").demand_factor == 1.5

    def test_missing_effect_raises(self):
        with pytest.raises(OptimizationError):
            lookup_effect({}, "vectorize", "skl")


def _workload(effects):
    return Workload(
        name="w",
        routine="k",
        description="",
        problem_size="",
        pattern=AccessPattern.RANDOM,
        random_fraction=0.9,
        calibrations={"skl": MachineCalibration(5.0, 1, ())},
        effects=effects,
    )


class TestPipeline:
    """Step sequences replayed by ``Workload.state_for`` and judged by
    ``CaseStudyRunner.decide``."""

    def test_run_returns_all_states(self, skl):
        workload = _workload(
            {
                "vectorize": TransformEffect(demand_factor=2.0),
                "smt2": TransformEffect(demand_factor=1.5, smt_ways=2),
            }
        )
        steps = ("vectorize", "smt2")
        states = [workload.state_for(skl, steps[:i]) for i in range(3)]
        assert [s.label for s in states] == ["base", "+ vect", "+ vect, 2-ht"]
        assert states[-1].demand_mlp == pytest.approx(15.0)

    def test_pairs(self, knl):
        """Each version is its predecessor with one more effect applied:
        the advisor's candidates and the tables' rows are one state."""
        workload = get_workload("isx")
        steps = ("vectorize", "smt2", "l2_prefetch")
        for i, step in enumerate(steps):
            before = workload.state_for(knl, steps[:i])
            after = lookup_effect(workload.effects, step, "knl").apply(before, step)
            assert workload.state_for(knl, steps[: i + 1]) == after

    def test_recipe_context_for(self, knl):
        """The decision sees the version's applied steps and SMT ways."""
        decision = CaseStudyRunner(get_workload("comd"), knl).decide(
            ("vectorize", "smt2")
        )
        kinds = [rec.kind for rec in decision.recommendations]
        assert OptimizationKind.VECTORIZATION not in kinds
        smt = decision.recommendations[kinds.index(OptimizationKind.SMT)]
        assert "4-way SMT" in smt.reason


class TestSequenceValidation:
    """``Workload.state_for`` rejects sequences no effect table admits;
    the advisor builds SMT steps in order."""

    EFFECTS = {
        "vectorize": TransformEffect(),
        "smt2": TransformEffect(smt_ways=2),
        "smt4": TransformEffect(smt_ways=4),
    }

    def test_valid_sequence(self, skl):
        state = _workload(self.EFFECTS).state_for(skl, ["vectorize", "smt2", "smt4"])
        assert state.applied == ("vectorize", "smt2", "smt4")

    def test_duplicate_rejected(self, skl):
        with pytest.raises(OptimizationError):
            _workload(self.EFFECTS).state_for(skl, ["vectorize", "vectorize"])

    def test_unknown_step_rejected(self, skl):
        with pytest.raises(OptimizationError):
            _workload(self.EFFECTS).state_for(skl, ["warp_drive"])

    def test_smt4_requires_smt2(self):
        """The advisor's SMT step doubles the thread count, so smt4
        follows smt2; the machine's SMT ways cap it."""
        smt = OptimizationKind.SMT
        assert step_for_kind(smt, _state(), 4) == "smt2"
        assert step_for_kind(smt, _state(smt_ways=2), 4) == "smt4"
        assert step_for_kind(smt, _state(smt_ways=2), 2) is None
