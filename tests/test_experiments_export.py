"""JSON export of the reproduction results."""

import json

import pytest

from repro.experiments.export import (
    export_json,
    full_reproduction_dict,
    table_to_dict,
)
from repro.experiments.harness import reproduce_table


class TestTableExport:
    @pytest.fixture(scope="class")
    def isx_dict(self):
        return table_to_dict(reproduce_table("isx"))

    def test_structure(self, isx_dict):
        assert isx_dict["workload"] == "isx"
        assert isx_dict["table"] == "IV"
        assert isx_dict["rows_total"] == 9
        assert isx_dict["rows_ok"] == 9

    def test_row_contents(self, isx_dict):
        row = isx_dict["rows"][0]
        assert row["machine"] == "skl"
        assert row["measured"]["n_avg"] == pytest.approx(10.0, abs=0.3)
        assert row["paper"]["n_avg"] == 10.1
        assert row["checks"]["all_ok"]

    def test_json_serializable(self, isx_dict):
        json.dumps(isx_dict)  # no TypeError


class TestFullExport:
    @pytest.fixture(scope="class")
    def full(self):
        return full_reproduction_dict()

    def test_all_tables_present(self, full):
        assert set(full["tables"]) == {
            "isx",
            "hpcg",
            "pennant",
            "comd",
            "minighost",
            "snap",
        }

    def test_figures_present(self, full):
        assert full["figures"]["figure1"]["unexplained_disagreements"] == 0
        assert full["figures"]["figure2"]["l1_ceiling_bw_gbs"] == pytest.approx(
            262, abs=10
        )
        assert full["figures"]["figure2"]["series"]

    def test_export_to_file(self, tmp_path):
        path = tmp_path / "repro.json"
        text = export_json(str(path))
        doc = json.loads(path.read_text())
        assert doc == json.loads(text)
        assert "tables" in doc

    def test_figures_to_dict_shape(self, full):
        assert full["figures"]["figure1"]["accuracy"] == 1.0

    def test_each_case_study_runs_once(self, monkeypatch):
        """Figure 1 is read off the tables: 18 runner passes, not 36."""
        from repro.perfmodel import CaseStudyRunner

        calls = []
        run = CaseStudyRunner.run

        def counted(self):
            calls.append((self.workload.name, self.machine.name))
            return run(self)

        monkeypatch.setattr(CaseStudyRunner, "run", counted)
        full_reproduction_dict()
        assert len(calls) == 18
        assert len(set(calls)) == 18


class TestCliJsonFlag:
    def test_reproduce_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "out.json"
        assert main(["reproduce", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["tables"]["snap"]["rows_ok"] == 7
