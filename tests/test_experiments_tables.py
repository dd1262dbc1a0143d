"""Tables IV-IX reproduction: the library's headline validation.

Each test regenerates one paper table from the workload models through
the fixed-point solver and checks every row against the transcribed
paper data within the DESIGN.md tolerance bands.
"""

import pytest

from repro.experiments import (
    CASE_STUDY_TABLES,
    KNOWN_EXCEPTIONS,
    check_table1,
    check_table2,
    check_table3,
    reproduce_figure1,
    reproduce_table,
)

WORKLOADS = list(CASE_STUDY_TABLES)


@pytest.fixture(scope="module")
def reproductions():
    return {name: reproduce_table(name) for name in WORKLOADS}


class TestStructuralTables:
    """Tables I-III (counter visibility, applications, platforms)."""

    @pytest.mark.parametrize("table", ["table1", "table2", "table3"])
    def test_every_cell_matches_paper(self, table):
        check = {"table1": check_table1, "table2": check_table2, "table3": check_table3}
        checks = check[table]()
        mismatches = [(c.label, c.expected, c.actual) for c in checks if not c.ok]
        assert not mismatches


@pytest.mark.parametrize("workload", WORKLOADS)
class TestCaseStudyTables:
    """Tables IV-IX, row by row."""

    def test_row_count_matches_paper(self, reproductions, workload):
        table = reproductions[workload]
        assert len(table.comparisons) == len(CASE_STUDY_TABLES[workload])

    def test_n_avg_within_tolerance(self, reproductions, workload):
        bad = [
            (c.label, c.result.n_avg, c.paper.n_avg)
            for c in reproductions[workload].comparisons
            if not c.n_avg_ok
        ]
        assert not bad

    def test_bandwidth_within_tolerance(self, reproductions, workload):
        bad = [
            (c.label, c.result.bw_gbs, c.paper.bw_gbs)
            for c in reproductions[workload].comparisons
            if not c.bw_ok
        ]
        assert not bad

    def test_speedups_within_band(self, reproductions, workload):
        bad = [
            (c.label, c.result.speedup, c.paper.speedup)
            for c in reproductions[workload].comparisons
            if c.speedup_ok is False
        ]
        assert not bad

    def test_recipe_agrees_modulo_documented_exceptions(
        self, reproductions, workload
    ):
        bad = [
            (c.label, c.result.step)
            for c in reproductions[workload].comparisons
            if c.recipe_ok is False and c.known_exception is None
        ]
        assert not bad

    def test_render_produces_paper_style_table(self, reproductions, workload):
        text = reproductions[workload].render()
        assert "BW_obs" in text
        assert "n_avg" in text


class TestHeadlineShapes:
    """The qualitative claims each table exists to make."""

    def test_isx_skl_saturated_no_gains(self, reproductions):
        rows = reproductions["isx"].comparisons
        skl_rows = [c for c in rows if c.result.machine == "skl"]
        assert all(c.result.speedup < 1.05 for c in skl_rows)

    def test_isx_l2_prefetch_biggest_isx_win(self, reproductions):
        rows = reproductions["isx"].comparisons
        best = max(
            (c for c in rows if c.result.speedup), key=lambda c: c.result.speedup
        )
        assert best.result.step == "l2_prefetch"
        assert best.result.speedup > 1.25

    def test_hpcg_vectorization_ordering_matches_latency_headroom(
        self, reproductions
    ):
        """Paper IV-B: vect gains rank A64FX > KNL > SKL."""
        rows = {
            (c.result.machine, c.result.step): c.result.speedup
            for c in reproductions["hpcg"].comparisons
            if c.result.step == "vectorize"
        }
        assert (
            rows[("a64fx", "vectorize")]
            > rows[("knl", "vectorize")]
            > rows[("skl", "vectorize")]
        )

    def test_pennant_smt4_hits_l1_wall(self, reproductions):
        """Paper IV-C: 11.34/12 occupancy -> 4-way SMT buys nothing."""
        row = next(
            c
            for c in reproductions["pennant"].comparisons
            if c.result.machine == "knl" and c.result.step == "smt4"
        )
        assert row.result.speedup < 1.05
        assert row.result.n_avg > 0.9 * 12

    def test_comd_every_mlp_optimization_helps(self, reproductions):
        """Compute-bound CoMD: headroom everywhere, everything pays."""
        for c in reproductions["comd"].comparisons:
            if c.result.step in ("vectorize", "smt2", "smt4"):
                assert c.result.speedup > 1.15

    def test_minighost_tiling_wins_smt_does_not(self, reproductions):
        for c in reproductions["minighost"].comparisons:
            if c.result.step == "loop_tiling":
                assert c.result.speedup > 1.1
            if c.result.step in ("smt2", "smt4"):
                assert c.result.speedup < 1.06

    def test_minighost_a64fx_tiling_lowers_occupancy(self, reproductions):
        """Paper IV-E: tiling reduces MSHRQ occupancy while helping."""
        rows = [
            c for c in reproductions["minighost"].comparisons
            if c.result.machine == "a64fx"
        ]
        base = next(c for c in rows if c.result.source_label == "base")
        tiled = next(c for c in rows if c.result.source_label == "+ tiling")
        assert tiled.result.n_avg < base.result.n_avg

    def test_snap_prefetch_helps_more_off_skl(self, reproductions):
        rows = {
            c.result.machine: c.result.speedup
            for c in reproductions["snap"].comparisons
            if c.result.step == "sw_prefetch"
        }
        assert rows["skl"] < rows["knl"]
        assert rows["skl"] < 1.05  # aggressive SKL prefetcher

    def test_crossover_isx_binding_shifts_to_l2(self, reproductions):
        """After l2-pref the terminal occupancies exceed the L1 file."""
        for c in reproductions["isx"].comparisons:
            if "l2-pref" in c.result.source_label:
                assert c.result.n_avg > 12


class TestRecipeScore:
    def test_no_unexplained_disagreements(self):
        score = reproduce_figure1()
        assert score.unexplained_disagreements == 0
        assert score.accuracy == pytest.approx(1.0)
        # Only the paper-documented contention rows need excusing.
        assert score.known_exceptions <= len(KNOWN_EXCEPTIONS)

    def test_substantial_row_count(self):
        assert reproduce_figure1().total >= 28  # every opt row of Tables IV-IX
