"""Property-based tests on latency models, profiles, and the recipe."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    Benefit,
    Classification,
    AccessPattern,
    MlpCalculator,
    OptimizationKind,
    Recipe,
)
from repro.machines import get_machine
from repro.memory import LatencyProfile, TabulatedLatencyModel
from repro.optim import TransformEffect, WorkloadState

MACHINES = {name: get_machine(name) for name in ("skl", "knl", "a64fx")}

utils = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestTabulatedModelProperties:
    @st.composite
    def calibrations(draw):
        n = draw(st.integers(min_value=2, max_value=8))
        # Utilizations on a 1e-6 grid: the model merges control points
        # closer than float-safe interpolation spacing, so generating
        # already-separated points keeps every example valid.
        ticks = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=10**6),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
        )
        us = [t / 1e6 for t in ticks]
        lats = sorted(
            draw(
                st.lists(
                    st.floats(min_value=1.0, max_value=1000.0),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        return list(zip(us, lats))

    @given(points=calibrations(), u1=utils, u2=utils)
    def test_interpolation_monotone(self, points, u1, u2):
        model = TabulatedLatencyModel(points)
        lo, hi = sorted((u1, u2))
        assert model.latency_ns(hi) >= model.latency_ns(lo) - 1e-9

    @given(points=calibrations(), u=utils)
    def test_within_calibrated_range(self, points, u):
        model = TabulatedLatencyModel(points)
        lats = [l for _, l in model.points]
        value = model.latency_ns(u)
        assert min(lats) - 1e-9 <= value <= max(lats) + 1e-9


class TestProfileProperties:
    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=128e9),
                st.floats(min_value=1.0, max_value=1000.0),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_from_samples_always_valid(self, samples):
        bws = [b for b, _ in samples]
        assume(len(set(bws)) == len(bws))
        profile = LatencyProfile.from_samples("m", 128e9, samples)
        lats = [p.latency_ns for p in profile.points]
        assert lats == sorted(lats)  # rectified to monotone

    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=128e9),
                st.floats(min_value=1.0, max_value=1000.0),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_json_roundtrip_preserves_queries(self, samples):
        bws = [b for b, _ in samples]
        assume(len(set(bws)) == len(bws))
        profile = LatencyProfile.from_samples("m", 128e9, samples)
        clone = LatencyProfile.from_json(profile.to_json())
        probe = profile.max_measured_bw_bytes / 2
        assert math.isclose(
            clone.latency_at(probe), profile.latency_at(probe), rel_tol=1e-12
        )


class TestRecipeInvariants:
    @settings(max_examples=80, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        bw_fraction=st.floats(min_value=0.001, max_value=0.99),
        pattern=st.sampled_from(list(AccessPattern)),
    )
    def test_decision_always_well_formed(self, machine_name, bw_fraction, pattern):
        machine = MACHINES[machine_name]
        mlp = MlpCalculator(machine).calculate(
            bw_fraction * machine.memory.peak_bw_bytes
        )
        decision = Recipe(machine).decide(
            mlp, Classification(pattern, 0.5, rationale="prop")
        )
        assert decision.binding_level == (1 if pattern is AccessPattern.RANDOM else 2)
        assert decision.mshr_limit == machine.mshr_limit(decision.binding_level)
        values = [r.benefit.value for r in decision.recommendations]
        assert values == sorted(values, reverse=True)

    @settings(max_examples=80, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        bw_fraction=st.floats(min_value=0.001, max_value=0.99),
        pattern=st.sampled_from(list(AccessPattern)),
    )
    def test_full_queue_never_recommends_mlp_increase(
        self, machine_name, bw_fraction, pattern
    ):
        """Flowchart branch 1: occupancy ≈ size -> no MLP-increasing opt.

        (SW prefetch to L2 is the sanctioned exception: it *shifts* the
        binding queue rather than pushing the full one.)
        """
        machine = MACHINES[machine_name]
        mlp = MlpCalculator(machine).calculate(
            bw_fraction * machine.memory.peak_bw_bytes
        )
        decision = Recipe(machine).decide(
            mlp, Classification(pattern, 0.5, rationale="prop")
        )
        if decision.occupancy_ratio >= 0.95:
            assert decision.benefit_of(OptimizationKind.VECTORIZATION) in (
                Benefit.NONE,
            )
            assert decision.benefit_of(OptimizationKind.SMT) is Benefit.NONE

    @settings(max_examples=50, deadline=None)
    @given(
        machine_name=st.sampled_from(["skl", "knl", "a64fx"]),
        bw_fraction=st.floats(min_value=0.94, max_value=0.99),
    )
    def test_saturated_bandwidth_blocks_mlp_increase(self, machine_name, bw_fraction):
        machine = MACHINES[machine_name]
        bw = bw_fraction * machine.memory.achievable_bw_bytes
        mlp = MlpCalculator(machine).calculate(bw)
        decision = Recipe(machine).decide(
            mlp, Classification(AccessPattern.STREAMING, 0.8, rationale="prop")
        )
        assert decision.bandwidth_saturated
        assert not decision.benefit_of(OptimizationKind.VECTORIZATION).expects_speedup


class TestTransformAlgebra:
    @st.composite
    def states(draw):
        return WorkloadState(
            workload="w",
            machine_name="skl",
            routine="k",
            pattern=draw(st.sampled_from(list(AccessPattern))),
            random_fraction=draw(utils),
            binding_level=draw(st.sampled_from([1, 2])),
            demand_mlp=draw(st.floats(min_value=0.01, max_value=64.0)),
            traffic_factor=draw(st.floats(min_value=0.1, max_value=4.0)),
        )

    @given(
        state=states(),
        f1=st.floats(min_value=0.2, max_value=4.0),
        f2=st.floats(min_value=0.2, max_value=4.0),
    )
    def test_demand_factors_compose_multiplicatively(self, state, f1, f2):
        a = TransformEffect(demand_factor=f1).apply(state, "vectorize")
        b = TransformEffect(demand_factor=f2).apply(a, "smt2")
        assert math.isclose(b.demand_mlp, state.demand_mlp * f1 * f2, rel_tol=1e-9)

    @given(state=states(), f=st.floats(min_value=0.2, max_value=4.0))
    def test_traffic_factor_composes(self, state, f):
        after = TransformEffect(traffic_factor=f).apply(state, "loop_tiling")
        assert math.isclose(
            after.traffic_factor, state.traffic_factor * f, rel_tol=1e-9
        )

    @given(state=states())
    def test_apply_preserves_identity_fields(self, state):
        after = TransformEffect().apply(state, "vectorize")
        assert after.workload == state.workload
        assert after.machine_name == state.machine_name
        assert after.pattern == state.pattern
