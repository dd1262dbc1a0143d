"""Internal consistency of the transcribed paper data."""

import pytest

from repro.core import mlp_from_bandwidth
from repro.experiments import CASE_STUDY_TABLES, rows_for
from repro.experiments.paperdata import TABLE3_PLATFORMS
from repro.machines import get_machine


class TestRowStructure:
    def test_six_tables(self):
        assert len(CASE_STUDY_TABLES) == 6

    def test_every_table_covers_three_machines(self):
        for name, rows in CASE_STUDY_TABLES.items():
            assert {r.proc for r in rows} == {"skl", "knl", "a64fx"}, name

    def test_every_machine_has_a_base_row(self):
        for name in CASE_STUDY_TABLES:
            for proc in ("skl", "knl", "a64fx"):
                assert any(r.source == "base" for r in rows_for(name, proc))

    def test_terminal_rows_have_no_speedup(self):
        for rows in CASE_STUDY_TABLES.values():
            for row in rows:
                assert (row.opt is None) == (row.speedup is None)

    def test_rows_for_filter(self):
        assert all(r.proc == "knl" for r in rows_for("isx", "knl"))


class TestLittlesLawConsistency:
    """The paper's own (BW, lat, n) triples must satisfy Equation 2.

    This is the checksum that validated the transcription and pinned
    down the per-core/256B-line reading of the paper's tables.
    """

    #: Rows where the paper's printed triple does NOT satisfy its own
    #: Equation 2 (documented in EXPERIMENTS.md "paper-internal tensions"):
    #: CoMD SKL "+ vect" prints n=0.29 but 4.56 GB/s x 82 ns / 64 B / 24
    #: cores = 0.243.
    PAPER_INCONSISTENT = {("comd", "skl", "+ vect")}

    @pytest.mark.parametrize(
        "workload", list(CASE_STUDY_TABLES), ids=list(CASE_STUDY_TABLES)
    )
    def test_all_rows(self, workload):
        platforms = {p.name: p for p in TABLE3_PLATFORMS}
        machines = {name: get_machine(name) for name in platforms}
        for row in CASE_STUDY_TABLES[workload]:
            if (workload, row.proc, row.source) in self.PAPER_INCONSISTENT:
                continue
            machine = machines[row.proc]
            n = mlp_from_bandwidth(
                row.bw_gbs * 1e9,
                row.lat_ns,
                machine.line_bytes,
                cores=machine.active_cores,
            )
            # Paper rounds to 2 decimals; allow 6% slack.
            assert n == pytest.approx(row.n_avg, rel=0.06), (
                f"{workload} {row.proc} {row.source}"
            )

    def test_bw_pct_column_consistent(self):
        for name, rows in CASE_STUDY_TABLES.items():
            for row in rows:
                machine = get_machine(row.proc)
                pct = 100.0 * row.bw_gbs / machine.peak_bw_gbs
                assert pct == pytest.approx(row.bw_pct, abs=1.6), (
                    f"{name} {row.proc} {row.source}"
                )


class TestOccupancyVsLimits:
    def test_no_row_materially_exceeds_binding_file(self):
        """Occupancies stay near/below the relevant MSHR file sizes."""
        for name, rows in CASE_STUDY_TABLES.items():
            for row in rows:
                machine = get_machine(row.proc)
                assert row.n_avg <= machine.l2.mshrs * 1.05, (
                    f"{name} {row.proc} {row.source}"
                )

    def test_isx_optimized_rows_exceed_l1_file(self):
        """The L2-prefetch rows are only possible via L2 MSHRs."""
        for row in CASE_STUDY_TABLES["isx"]:
            if "l2-pref" in row.source:
                machine = get_machine(row.proc)
                assert row.n_avg > machine.l1.mshrs
