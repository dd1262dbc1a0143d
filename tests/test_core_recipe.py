"""The Figure-1 recipe engine: every branch of the flowchart."""

from repro.core import (
    AccessPattern,
    Benefit,
    Classification,
    MlpCalculator,
    OccupancyStatus,
    OptimizationKind,
    Recipe,
    RecipeContext,
)


def _classify(pattern, pf=0.0):
    return Classification(pattern=pattern, prefetch_fraction=pf, rationale="test")


def _decide(machine, bw_gbs, pattern, context=None):
    mlp = MlpCalculator(machine).calculate_gbs(bw_gbs)
    return Recipe(machine).decide(mlp, _classify(pattern), context)


class TestBindingLevel:
    def test_random_binds_l1(self, skl):
        decision = _decide(skl, 50.0, AccessPattern.RANDOM)
        assert decision.binding_level == 1
        assert decision.mshr_limit == 10

    def test_streaming_binds_l2(self, skl):
        decision = _decide(skl, 50.0, AccessPattern.STREAMING)
        assert decision.binding_level == 2
        assert decision.mshr_limit == 16

    def test_override(self, skl):
        ctx = RecipeContext(binding_level_override=2)
        decision = _decide(skl, 50.0, AccessPattern.RANDOM, ctx)
        assert decision.binding_level == 2


class TestIsxSklScenario:
    """Table IV on SKL: full L1 MSHRQ + saturated bandwidth -> stop."""

    def test_stop_verdict(self, skl):
        decision = _decide(skl, 106.9, AccessPattern.RANDOM)
        assert decision.status is OccupancyStatus.FULL
        assert decision.bandwidth_saturated
        assert decision.stop
        assert decision.benefit_of(OptimizationKind.VECTORIZATION) is Benefit.NONE
        assert decision.benefit_of(OptimizationKind.SMT) is Benefit.NONE


class TestIsxKnlScenario:
    """Table IV on KNL: near-full L1 -> the L2-prefetch unlock."""

    def test_l2_prefetch_is_top_recommendation(self, knl):
        ctx = RecipeContext(
            applied=frozenset({OptimizationKind.VECTORIZATION, OptimizationKind.SMT}),
            smt_ways_used=2,
        )
        decision = _decide(knl, 253.0, AccessPattern.RANDOM, ctx)
        assert decision.status in (OccupancyStatus.NEAR_FULL, OccupancyStatus.FULL)
        top = decision.top_recommendation()
        assert top is not None
        assert top.kind is OptimizationKind.SW_PREFETCH_L2
        assert top.benefit is Benefit.SIGNIFICANT

    def test_l2_prefetch_not_offered_twice(self, knl):
        ctx = RecipeContext(
            applied=frozenset({OptimizationKind.SW_PREFETCH_L2}), smt_ways_used=2
        )
        decision = _decide(knl, 344.0, AccessPattern.RANDOM, ctx)
        assert decision.benefit_of(OptimizationKind.SW_PREFETCH_L2) is Benefit.NONE


class TestHeadroomScenario:
    """PENNANT/CoMD-like: low occupancy -> vectorize, then SMT."""

    def test_vectorization_significant(self, knl):
        decision = _decide(knl, 78.2, AccessPattern.RANDOM)
        assert decision.status is OccupancyStatus.HEADROOM
        assert decision.benefit_of(OptimizationKind.VECTORIZATION) is Benefit.SIGNIFICANT
        assert decision.benefit_of(OptimizationKind.SMT) is Benefit.SIGNIFICANT
        assert not decision.stop

    def test_unroll_and_jam_at_very_low_occupancy(self, skl):
        """Paper III-C: low occupancy implies cache residency -> register
        tiling (dgemm)."""
        decision = _decide(skl, 3.19, AccessPattern.MIXED)
        assert decision.benefit_of(OptimizationKind.UNROLL_AND_JAM) is Benefit.MODERATE


class TestBandwidthSaturation:
    """HPCG on SKL: headroom in the MSHRQ but bandwidth is the wall."""

    def test_mlp_increasers_fail_when_saturated(self, skl):
        decision = _decide(skl, 109.9, AccessPattern.STREAMING)
        assert decision.bandwidth_saturated
        assert decision.benefit_of(OptimizationKind.VECTORIZATION) is Benefit.NONE
        assert decision.benefit_of(OptimizationKind.LOOP_TILING) is Benefit.SIGNIFICANT


class TestHighBandwidthTiling:
    """MiniGhost: very high (but unsaturated) bandwidth -> tiling."""

    def test_tiling_moderate_at_high_bw(self, knl):
        decision = _decide(knl, 232.96, AccessPattern.STREAMING)
        assert not decision.bandwidth_saturated
        benefit = decision.benefit_of(OptimizationKind.LOOP_TILING)
        assert benefit.expects_speedup

    def test_tiling_marginal_at_low_bw(self, knl):
        decision = _decide(knl, 50.0, AccessPattern.STREAMING)
        assert not decision.benefit_of(OptimizationKind.LOOP_TILING).expects_speedup


class TestStreamTrackerLimit:
    """HPCG on KNL: 4-way SMT overflows the 16-stream prefetch tracker."""

    def test_smt4_degraded_for_streaming(self, knl):
        ctx = RecipeContext(
            applied=frozenset({OptimizationKind.VECTORIZATION, OptimizationKind.SMT}),
            smt_ways_used=2,
        )
        decision = _decide(knl, 296.0, AccessPattern.STREAMING, ctx)
        assert decision.benefit_of(OptimizationKind.SMT) is Benefit.MARGINAL
        assert any("stream" in note for note in decision.notes)

    def test_smt2_not_degraded(self, knl):
        decision = _decide(knl, 205.0, AccessPattern.STREAMING)
        assert decision.benefit_of(OptimizationKind.SMT) is Benefit.SIGNIFICANT

    def test_random_pattern_unaffected_by_tracker(self, knl):
        ctx = RecipeContext(smt_ways_used=2, applied=frozenset({OptimizationKind.SMT}))
        decision = _decide(knl, 100.0, AccessPattern.RANDOM, ctx)
        assert decision.benefit_of(OptimizationKind.SMT) is Benefit.SIGNIFICANT


class TestNoSmtMachine:
    def test_a64fx_never_recommends_smt(self, a64fx):
        decision = _decide(a64fx, 271.0, AccessPattern.STREAMING)
        assert decision.benefit_of(OptimizationKind.SMT) is Benefit.NONE
        assert any("no SMT" in note for note in decision.notes)


class TestAggressivePrefetcherDamping:
    """SNAP on SKL: software prefetch gains only 1%."""

    def test_swpf_marginal_on_skl(self, skl):
        decision = _decide(skl, 58.2, AccessPattern.MIXED)
        assert decision.benefit_of(OptimizationKind.SW_PREFETCH_L1) is Benefit.MARGINAL

    def test_swpf_moderate_on_knl(self, knl):
        decision = _decide(knl, 122.9, AccessPattern.MIXED)
        assert decision.benefit_of(OptimizationKind.SW_PREFETCH_L1) is Benefit.MODERATE


class TestDecisionStructure:
    def test_recommendations_sorted_by_benefit(self, knl):
        decision = _decide(knl, 78.2, AccessPattern.RANDOM)
        values = [r.benefit.value for r in decision.recommendations]
        assert values == sorted(values, reverse=True)

    def test_notes_mention_binding_queue(self, skl):
        decision = _decide(skl, 50.0, AccessPattern.RANDOM)
        assert any("L1" in note for note in decision.notes)

    def test_context_with_applied(self):
        ctx = RecipeContext().with_applied(OptimizationKind.VECTORIZATION)
        assert OptimizationKind.VECTORIZATION in ctx.applied
