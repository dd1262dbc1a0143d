"""End-to-end integration: the paper's full workflow on the simulator.

Two pipelines, neither of which touches any calibrated table data:

1. characterize → measure → analyze → recommend (the Figure 1 loop,
   with the latency profile coming from the X-Mem substitute and the
   bandwidth from the counter facade over a simulated run);
2. act on the recommendation, re-run, and confirm the simulator shows
   the predicted improvement (the ISx L2-prefetch loop on KNL).
"""

import pytest

from repro.core import OptimizationKind, RecipeContext, RoutineAnalyzer
from repro.sim import SimConfig, run_trace
from repro.workloads import get_workload
from repro.workloads.base import TraceSpec
from repro.xmem import XMemConfig, characterize_machine


class TestFullWorkflowOnSkl:
    """ISx on SKL: measured profile + simulated counters -> 'stop'."""

    @pytest.fixture(scope="class")
    def analyzer(self, skl, xmem_skl_profile):
        return RoutineAnalyzer(skl, xmem_skl_profile)

    @pytest.fixture(scope="class")
    def isx_stats(self, skl):
        trace = get_workload("isx").generate_trace(
            skl, spec=TraceSpec(threads=2, accesses_per_thread=2500)
        )
        return run_trace(
            trace, SimConfig(machine=skl, sim_cores=2, window_per_core=14)
        )

    def test_random_classification_from_counters(self, analyzer, isx_stats):
        report = analyzer.analyze_run(isx_stats)
        assert report.decision.binding_level == 1

    def test_occupancy_near_l1_file(self, analyzer, isx_stats):
        report = analyzer.analyze_run(isx_stats)
        assert report.mlp.n_avg > 7  # pushing the 10-entry file

    def test_l2_prefetch_or_stop_is_the_guidance(self, analyzer, isx_stats):
        """On SKL the profile-measured bandwidth is near achievable, so
        the recipe either stops or points at the L2-prefetch shift —
        never at vectorization/SMT."""
        report = analyzer.analyze_run(isx_stats)
        top = report.decision.top_recommendation()
        if top is not None:
            assert top.kind is OptimizationKind.SW_PREFETCH_L2
        for kind in (OptimizationKind.VECTORIZATION, OptimizationKind.SMT):
            assert not report.decision.benefit_of(kind).expects_speedup


class TestActOnRecommendationLoop:
    """KNL ISx: recommendation -> transform -> re-measure -> better."""

    @pytest.fixture(scope="class")
    def knl_profile(self, knl):
        return characterize_machine(
            knl, XMemConfig(levels=6, accesses_per_thread=1200)
        )

    def test_l2_prefetch_recommended_then_confirmed(self, knl, knl_profile):
        workload = get_workload("isx")
        spec = TraceSpec(threads=2, accesses_per_thread=2500)
        cfg = lambda: SimConfig(machine=knl, sim_cores=2, window_per_core=14)

        base_stats = run_trace(workload.generate_trace(knl, spec=spec), cfg())
        analyzer = RoutineAnalyzer(knl, knl_profile)
        report = analyzer.analyze_run(base_stats)

        # The recipe must point at the L2-prefetch shift.
        benefits = {
            r.kind: r.benefit for r in report.decision.recommendations
        }
        assert OptimizationKind.SW_PREFETCH_L2 in benefits
        assert benefits[OptimizationKind.SW_PREFETCH_L2].expects_speedup

        # Apply it and re-run: time drops, occupancy moves to L2.
        opt_stats = run_trace(
            workload.generate_trace(knl, steps=("l2_prefetch",), spec=spec), cfg()
        )
        assert opt_stats.elapsed_ns < base_stats.elapsed_ns
        assert opt_stats.avg_occupancy(2) > base_stats.avg_occupancy(2)

        # Re-analysis sees the higher-MLP operating point.
        ctx = RecipeContext(applied=frozenset({OptimizationKind.SW_PREFETCH_L2}))
        report2 = analyzer.analyze_run(opt_stats, context=ctx)
        assert report2.mlp.n_avg > report.mlp.n_avg


class TestTablesWithMeasuredProfile:
    """The case-study engine fed a *measured* X-Mem curve, not the
    calibrated model — the workflow a real user of the library runs."""

    def test_isx_skl_rows_with_measured_curve(self, skl, xmem_skl_profile):
        from repro.experiments import rows_for
        from repro.perfmodel import CaseStudyRunner, RuntimeModel
        from repro.workloads import get_workload

        runner = CaseStudyRunner(
            get_workload("isx"), skl, model=RuntimeModel(skl, curve=xmem_skl_profile)
        )
        results = runner.run()
        paper_rows = rows_for("isx", "skl")
        assert len(results) == len(paper_rows)
        for result, paper in zip(results, paper_rows):
            # Looser bands: the measured curve carries admission-queue
            # bias, but the verdicts and magnitudes must survive it.
            assert result.n_avg == pytest.approx(paper.n_avg, rel=0.35)
            if result.speedup is not None:
                # The saturated-SKL story must hold: nothing helps.
                assert result.speedup < 1.08

    def test_recipe_verdict_stable_under_measured_curve(self, skl, xmem_skl_profile):
        from repro.perfmodel import CaseStudyRunner, RuntimeModel
        from repro.workloads import get_workload

        runner = CaseStudyRunner(
            get_workload("isx"), skl, model=RuntimeModel(skl, curve=xmem_skl_profile)
        )
        base = runner.run_row((), "vectorize")
        assert base.recipe_benefit is not None
        assert not base.recipe_benefit.expects_speedup  # still "stop"


class TestPerRoutineProfileFlow:
    def test_craypat_feeds_analyzer(self, skl, xmem_skl_profile):
        """Per-routine counter bandwidths (CrayPat's observable) drive analysis."""
        analyzer = RoutineAnalyzer(skl, xmem_skl_profile)
        reports = []
        for name in ("isx", "snap"):
            trace = get_workload(name).generate_trace(
                skl, spec=TraceSpec(threads=2, accesses_per_thread=1500)
            )
            stats = run_trace(
                trace, SimConfig(machine=skl, sim_cores=2, window_per_core=16)
            )
            reports.append(analyzer.analyze_run(stats))
            assert reports[-1].mlp.n_avg >= 0
        # The two routines behave differently - exactly why the paper
        # insists on per-routine attribution.
        assert (
            abs(
                reports[0].classification.prefetch_fraction
                - reports[1].classification.prefetch_fraction
            )
            > 0.1
        )
