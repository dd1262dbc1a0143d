"""CLI surface: every subcommand end to end (capsys-based)."""

import json

import pytest

from repro.cli import build_parser, main


class TestMachines:
    def test_lists_all_three(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "skl" in out and "knl" in out and "a64fx" in out


class TestAnalyze:
    def test_isx_knl_analysis(self, capsys):
        code = main(
            [
                "analyze",
                "--machine",
                "knl",
                "--bandwidth",
                "233",
                "--pattern",
                "random",
                "--routine",
                "count_local_keys",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count_local_keys" in out
        assert "L1" in out
        assert "sw_prefetch_l2" in out  # the recipe's headline move

    def test_saturated_case_stops(self, capsys):
        main(
            [
                "analyze",
                "--machine",
                "skl",
                "--bandwidth",
                "106.9",
                "--pattern",
                "random",
            ]
        )
        assert "STOP" in capsys.readouterr().out


class TestCharacterize:
    def test_profile_output_and_save(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "p.json"
        # Shrink the sweep for test speed.
        code = main(
            [
                "characterize",
                "--machine",
                "skl",
                "--levels",
                "3",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "latency profile" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["machine"] == "skl"


class TestReproduce:
    def test_single_table(self, capsys):
        assert main(["reproduce", "--table", "comd"]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out
        assert "within tolerance" in out

    def test_json_with_one_table_is_a_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code = main(["reproduce", "--table", "isx", "--json", str(out_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--table isx" in err
        assert not out_path.exists()

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        assert "L1-MSHR ceiling" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_machine_rejected_by_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--machine", "epyc", "--bandwidth", "1"])

    def test_batch_flags_only_where_read(self):
        parser = build_parser()
        for argv in (
            ["reproduce", "--no-batch"],
            ["characterize", "--machine", "skl", "--no-batch"],
            ["simulate", "--machine", "skl", "--no-batch-miss"],
        ):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
        args = parser.parse_args(["simulate", "--machine", "skl", "--no-batch"])
        assert args.batch is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce"],
            ["advisor", "--machine", "skl", "--workload", "isx"],
        ],
        ids=["reproduce", "advisor"],
    )
    @pytest.mark.parametrize(
        "flag",
        [["--jobs", "2"], ["--no-cache"], ["--sanitize"]],
        ids=["jobs", "no-cache", "sanitize"],
    )
    def test_analytic_commands_take_no_simulator_flags(self, argv, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + flag)

    @pytest.mark.parametrize("command", ["characterize", "reproduce"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--retries", "2"],
            ["--timeout-s", "30"],
            ["--checkpoint", "ck.jsonl"],
            ["--resume"],
        ],
        ids=["retries", "timeout-s", "checkpoint", "resume"],
    )
    def test_retry_and_checkpoint_flags_rejected(self, command, flag):
        argv = [command] + (["--machine", "skl"] if command == "characterize" else [])
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + flag)


class TestVerboseSolver:
    def test_advisor_prints_solver_residual(self, capsys):
        assert main(["-v", "advisor", "--machine", "skl", "--workload", "isx"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if "solver:" in line
        ]
        assert lines
        for line in lines:
            assert "segment(s) examined" in line
            assert float(line.rsplit(" ", 1)[1]) < 1e-9
