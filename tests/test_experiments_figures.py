"""Figures 1-2, the intro TMA critique, and the stall-migration validation."""

import pytest

from repro.experiments import (
    FIGURE2,
    reproduce_figure1,
    reproduce_figure2,
    reproduce_intro_snap,
    reproduce_latency_counter_demo,
    reproduce_stall_migration,
)


@pytest.fixture(scope="module")
def figure1():
    return reproduce_figure1()


@pytest.fixture(scope="module")
def figure2():
    return reproduce_figure2()


#: The 37 Figure-1 rows in order: (workload, machine, source, step,
#: occupancy status, expected benefit, observed speedup); speedups are
#: compared exactly.
PINNED_FIGURE1 = [
    ("isx", "skl", "base", "vectorize", "full", "NONE", 1.0),
    ("isx", "skl", "+ vect", "smt2", "full", "NONE", 1.0),
    ("isx", "knl", "base", "vectorize", "near_full", "MARGINAL", 1.028220246778719),
    ("isx", "knl", "+ vect", "smt2", "near_full", "MARGINAL", 1.0421402097277366),
    ("isx", "knl", "+ vect, 2-ht", "smt4", "full", "NONE", 0.9677760684135049),
    ("isx", "knl", "+ vect, 2-ht", "l2_prefetch", "full", "SIGNIFICANT", 1.423309534210789),
    ("isx", "a64fx", "base", "l2_prefetch", "near_full", "SIGNIFICANT", 1.311437158766082),
    ("hpcg", "skl", "base", "vectorize", "headroom", "NONE", 0.9803921568627451),
    ("hpcg", "skl", "+ vect", "smt2", "near_full", "NONE", 0.9803921568627452),
    ("hpcg", "knl", "base", "vectorize", "headroom", "SIGNIFICANT", 1.1488424446534828),
    ("hpcg", "knl", "+ vect", "smt2", "headroom", "SIGNIFICANT", 1.312595407154142),
    ("hpcg", "knl", "+ vect, 2-ht", "smt4", "headroom", "MARGINAL", 1.0007068276972941),
    ("hpcg", "a64fx", "base", "vectorize", "headroom", "SIGNIFICANT", 1.7085558511429575),
    ("pennant", "skl", "base", "vectorize", "headroom", "SIGNIFICANT", 1.9837314323189783),
    ("pennant", "skl", "+ vect", "smt2", "headroom", "SIGNIFICANT", 1.3892288495931049),
    ("pennant", "knl", "base", "vectorize", "headroom", "SIGNIFICANT", 5.777314274955265),
    ("pennant", "knl", "+ vect", "smt2", "headroom", "SIGNIFICANT", 1.2020928216131885),
    ("pennant", "knl", "+ vect, 2-ht", "smt4", "near_full", "MARGINAL", 0.9587525240110615),
    ("pennant", "a64fx", "base", "vectorize", "headroom", "SIGNIFICANT", 3.836041078013552),
    ("comd", "skl", "base", "vectorize", "headroom", "SIGNIFICANT", 1.3910003314183106),
    ("comd", "skl", "+ vect", "smt2", "headroom", "SIGNIFICANT", 1.2047622643756881),
    ("comd", "knl", "base", "vectorize", "headroom", "SIGNIFICANT", 1.3481264702059743),
    ("comd", "knl", "+ vect", "smt2", "headroom", "SIGNIFICANT", 1.5138359254875697),
    ("comd", "knl", "+ vect, 2-ht", "smt4", "headroom", "SIGNIFICANT", 1.251722422982659),
    ("comd", "a64fx", "base", "vectorize", "headroom", "SIGNIFICANT", 1.249229182475289),
    ("minighost", "skl", "base", "loop_tiling", "headroom", "MODERATE", 1.143783608681402),
    ("minighost", "skl", "+ tiling", "smt2", "headroom", "NONE", 1.0075764457129668),
    ("minighost", "knl", "base", "loop_tiling", "headroom", "MODERATE", 1.4421676636269147),
    ("minighost", "knl", "+ tiling", "smt2", "headroom", "SIGNIFICANT", 0.9962683352422279),
    ("minighost", "knl", "+ tiling, 2-ht", "smt4", "headroom", "MARGINAL", 0.9825897139307405),
    ("minighost", "a64fx", "base", "loop_tiling", "headroom", "MODERATE", 1.4945790090315336),
    ("snap", "skl", "base", "sw_prefetch", "headroom", "MARGINAL", 1.013213878142862),
    ("snap", "skl", "+ pref", "smt2", "headroom", "SIGNIFICANT", 1.0337089774427717),
    ("snap", "knl", "base", "sw_prefetch", "headroom", "MODERATE", 1.090678839702473),
    ("snap", "knl", "+ pref", "smt2", "headroom", "SIGNIFICANT", 1.149892987758591),
    ("snap", "knl", "+ pref, 2-ht", "smt4", "headroom", "SIGNIFICANT", 1.0220590366359192),
    ("snap", "a64fx", "base", "sw_prefetch", "headroom", "MODERATE", 1.121836834731996),
]


class TestFigure1:
    def test_covers_every_optimization_row(self, figure1):
        assert figure1.total >= 28

    def test_recipe_accuracy_is_total(self, figure1):
        assert figure1.unexplained_disagreements == 0
        assert figure1.accuracy == pytest.approx(1.0)

    def test_rows_pinned(self, figure1):
        got = [
            (
                t.workload,
                t.machine,
                t.source,
                t.step,
                t.status,
                t.expected_benefit,
                t.observed_speedup,
            )
            for t in figure1.traces
        ]
        assert got == PINNED_FIGURE1

    def test_rows_are_the_tables_step_rows(self, figure1):
        """Figure 1 reads the reproduced tables, row for row."""
        from repro.experiments import reproduce_all_tables

        rows = [
            c
            for table in reproduce_all_tables().values()
            for c in table.comparisons
            if c.result.step is not None
        ]
        assert len(rows) == figure1.total
        for trace, row in zip(figure1.traces, rows):
            assert (trace.machine, trace.source, trace.step) == (
                row.result.machine,
                row.result.source_label,
                row.result.step,
            )
            assert trace.agrees == row.recipe_ok
            assert trace.known_exception == row.known_exception

    def test_traces_carry_decision_path(self, figure1):
        trace = figure1.traces[0]
        assert trace.binding_level in (1, 2)
        assert 0 <= trace.occupancy_ratio < 3
        assert trace.status in ("headroom", "near_full", "full")

    def test_render(self, figure1):
        text = figure1.render()
        assert "accuracy" in text
        assert "isx" in text


class TestFigure2:
    def test_l1_ceiling_near_paper_256(self, figure2):
        assert figure2.l1_ceiling_bw_gbs == pytest.approx(
            FIGURE2.l1_ceiling_bw_gbs, rel=0.05
        )

    def test_roofs_match_paper(self, figure2):
        assert figure2.extended.roofline.peak_bw_gbs == FIGURE2.peak_bw_gbs
        assert figure2.extended.roofline.peak_gflops == pytest.approx(
            FIGURE2.peak_gflops, rel=0.01
        )

    def test_base_point_pinned_by_ceiling(self, figure2):
        """The paper's argument: classic roofline misleads, ceiling explains."""
        assert figure2.base_pinned_by_ceiling

    def test_optimized_point_breaks_ceiling(self, figure2):
        assert figure2.optimized_breaks_ceiling

    def test_series_extended_bound_below_classic(self, figure2):
        for _, classic, extended in figure2.series:
            assert extended <= classic + 1e-9

    def test_render(self, figure2):
        assert "L1-MSHR ceiling" in figure2.render()


class TestIntroSnap:
    @pytest.fixture(scope="class")
    def intro(self):
        return reproduce_intro_snap(accesses_per_thread=2000)

    def test_tma_split_is_unclear(self, intro):
        """Neither bandwidth- nor latency-bound dominates (paper: 27/23)."""
        assert intro.tma_guidance_is_unclear

    def test_tma_latency_misleading(self, intro):
        assert intro.tma_latency_misleading

    def test_mlp_guidance_actionable(self, intro):
        assert intro.mlp_guidance_is_actionable
        assert not intro.mlp_report.decision.stop

    def test_render(self, intro):
        text = intro.render()
        assert "TMA" in text and "dim3_sweep" in text


class TestLatencyCounterDemo:
    @pytest.fixture(scope="class")
    def demo(self):
        return reproduce_latency_counter_demo(accesses_per_thread=2000)

    def test_streaming_underreports(self, demo):
        """hpcg: counter says ~hit latency, true is ~378 cycles."""
        assert demo.streaming_underreports
        assert demo.streaming_true_latency_cycles > 200

    def test_random_overreports(self, demo):
        """ISx: most loads binned above 512 cycles."""
        assert demo.random_overreports

    def test_render(self, demo):
        assert "under-report" in demo.render()


class TestStallMigration:
    @pytest.mark.parametrize("machine", ["knl", "a64fx"])
    def test_bottleneck_migrates(self, machine):
        result = reproduce_stall_migration(machine, accesses_per_thread=3000)
        assert result.base_l1_full_fraction > 0.5
        assert result.bottleneck_migrated
        assert result.bandwidth_improved

    def test_l2_occupancy_reaches_paper_range(self):
        """KNL optimized ISx: L2 occupancy in the ~20s (paper n=20)."""
        result = reproduce_stall_migration("knl", accesses_per_thread=3000)
        assert result.prefetched_l2_occupancy > 15
