"""CLI: ingest, headroom, recipe-score, reproduce-all paths."""

import pytest

from repro.cli import main


class TestIngest:
    def test_csv_ingestion(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("count_local_keys,106.9,0.05\n")
        assert main(["ingest", "--machine", "skl", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "count_local_keys" in out
        assert "STOP" in out

    def test_perf_ingestion(self, capsys, tmp_path):
        path = tmp_path / "perf.txt"
        path.write_text(
            "  1,000,000,000  OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL\n"
        )
        code = main(
            [
                "ingest",
                "--machine",
                "skl",
                "--file",
                str(path),
                "--format",
                "perf",
                "--seconds",
                "1.0",
                "--routine",
                "demo",
            ]
        )
        assert code == 0
        assert "demo" in capsys.readouterr().out

    def test_perf_without_seconds_errors(self, capsys, tmp_path):
        path = tmp_path / "perf.txt"
        path.write_text("1 X\n")
        code = main(
            ["ingest", "--machine", "skl", "--file", str(path), "--format", "perf"]
        )
        assert code == 2

    def test_bad_measurement_reports_error(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# nothing here\n")
        code = main(["ingest", "--machine", "skl", "--file", str(path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestHeadroom:
    def test_map_rendered(self, capsys):
        assert main(["headroom", "--machine", "knl"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "streaming" in out

    def test_concept_machines_available(self, capsys):
        assert main(["headroom", "--machine", "hbm3"]) == 0


class TestRecipeScore:
    def test_score_is_clean(self, capsys):
        assert main(["recipe-score"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out


class TestReproduceAll:
    def test_all_tables(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        for table in ("IV", "V", "VI", "VII", "VIII", "IX"):
            assert f"Table {table} reproduction" in out
        assert "all rows within tolerance" in out


class TestLenientIngest:
    def test_bad_rows_survive_with_quality_report(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "count_local_keys,106.9,0.05\n"
            "broken_row,not_a_number,0.5\n"
        )
        code = main(
            ["ingest", "--machine", "skl", "--file", str(path), "--lenient"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "data quality" in out
        assert "bad-cell" in out
        assert "error budget widened" in out
        assert "count_local_keys" in out

    def test_strict_mode_still_dies_on_bad_row(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("ok,50.0,0.5\nbroken,not_a_number,0.5\n")
        code = main(["ingest", "--machine", "skl", "--file", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_clean_input_prints_no_quality_block(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("count_local_keys,106.9,0.05\n")
        code = main(
            ["ingest", "--machine", "skl", "--file", str(path), "--lenient"]
        )
        assert code == 0
        assert "data quality" not in capsys.readouterr().out


class TestCharacterizeResume:
    # Serial, so no worker can finish level 4 before level 3 raises.
    ARGS = ["characterize", "--machine", "skl", "--levels", "4", "--jobs", "1"]

    @staticmethod
    def _profile(out):
        return out[out.index("latency profile") : out.index("characterized in")]

    def test_interrupted_sweep_resumes_from_sim_cache(
        self, capsys, monkeypatch, fresh_sim_cache
    ):
        from repro.xmem.kernels import gap_sweep
        from repro.xmem.runner import XMemRunner

        gaps = gap_sweep(4)
        measure = XMemRunner.measure_level

        def interrupted(runner, gap_cycles):
            if gap_cycles == gaps[2]:
                raise RuntimeError("interrupted at level 3 of 4")
            return measure(runner, gap_cycles)

        monkeypatch.setattr(XMemRunner, "measure_level", interrupted)
        with pytest.raises(RuntimeError, match="level 3 of 4"):
            main(self.ARGS)
        monkeypatch.setattr(XMemRunner, "measure_level", measure)
        capsys.readouterr()

        # Rerun the same command against the same cache directory.
        fresh_sim_cache()
        assert main(self.ARGS) == 0
        resumed = capsys.readouterr().out
        assert "sim cache: 2 hit(s), 2 miss(es)" in resumed

        assert main(self.ARGS + ["--no-cache"]) == 0
        uncached = capsys.readouterr().out
        assert "sim cache: disabled" in uncached
        assert self._profile(resumed) == self._profile(uncached)
