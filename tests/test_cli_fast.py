"""CLI surface for the analytic --fast mode and the cache introspection.

Complements test_cli.py: exercises ``characterize --fast``,
``analyze --fast``, ``advisor``, ``crossval-analytic``, ``cache stats``,
and the ``-v`` solver diagnostics end to end through ``main``.
"""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _sanitize_off(monkeypatch):
    """Run the --fast assertions with sanitize mode off.

    Under ``REPRO_SANITIZE=1`` (e.g. the CI sanitize job) ``--fast``
    correctly declines and runs the instrumented simulator, which would
    fail every analytic-path assertion here.  The decline behavior
    itself is covered by ``test_fast_declines_under_sanitize``, which
    re-sets the variable explicitly.
    """
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


class TestCharacterizeFast:
    def test_fast_profile_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "fast.json"
        code = main(
            [
                "characterize",
                "--machine",
                "skl",
                "--levels",
                "4",
                "--fast",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "source=analytic" in out
        assert "analytic fast path" in out and "cached probe run(s)" in out
        doc = json.loads(out_path.read_text())
        assert doc["machine"] == "skl"
        assert doc["source"] == "analytic"

    def test_warm_calibration_replays_probes_from_sim_cache(
        self, capsys, fresh_sim_cache
    ):
        args = ["characterize", "--machine", "skl", "--fast"]

        def profile(out):
            return out[out.index("latency profile") : out.index("analytic fast path")]

        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "sim cache: 0 hit(s), 5 miss(es), 5 stored" in cold

        # A rerun in a new process sees the same directory, zeroed counters.
        fresh_sim_cache()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "sim cache: 5 hit(s), 0 miss(es), 0 stored" in warm
        assert profile(warm) == profile(cold)

    def test_fast_declines_under_sanitize(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        code = main(
            ["characterize", "--machine", "skl", "--levels", "3", "--fast"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The decline is a stated reason, then the real sweep runs.
        assert "--fast declined" in out
        assert "instrumented simulator" in out
        assert "characterized in" in out


class TestAnalyzeFast:
    def test_widened_error_budget_reported(self, capsys):
        code = main(
            [
                "analyze",
                "--machine",
                "knl",
                "--bandwidth",
                "233",
                "--pattern",
                "random",
                "--fast",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "error budget widened" in out
        assert "docs/QUEUEING.md" in out


class TestAdvisor:
    def test_fast_route_is_reported(self, capsys):
        args = ["-v", "advisor", "--machine", "skl", "--workload", "isx"]
        assert main([*args, "--fast"]) == 0
        fast = capsys.readouterr().out
        assert "solved analytically (closed-form fast path)" in fast
        assert main(args) == 0
        slow = capsys.readouterr().out
        # The fast route is the same solve: same segments, same residual.
        diagnostics = [line for line in fast.splitlines() if "solver:" in line]
        assert diagnostics and diagnostics == [
            line for line in slow.splitlines() if "solver:" in line
        ]

    def test_slow_route_without_fast(self, capsys):
        code = main(
            ["-v", "advisor", "--machine", "skl", "--workload", "isx"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "solved analytically" not in out
        assert "segment(s) examined, final residual" in out

    def test_diagnostics_silent_without_verbose(self, capsys):
        assert main(["advisor", "--machine", "skl", "--workload", "isx"]) == 0
        assert "solver:" not in capsys.readouterr().out


class TestCrossValAnalytic:
    def test_single_machine_table_and_json(self, capsys, tmp_path):
        json_path = tmp_path / "crossval.json"
        code = main(
            ["crossval-analytic", "--machine", "skl", "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst bw err" in out
        assert "fallback: prefetch-dominated" in out  # minighost on skl
        doc = json.loads(json_path.read_text())
        assert len(doc["rows"]) == 6  # all paper workloads run on skl
        assert all(row["within_bound"] for row in doc["rows"])


class TestCacheStats:
    def test_stats_lists_stores(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("cache directory:")
        assert out[1].split()[0] == "total"
        assert "entr(ies)" in out[1] and "quarantined" in out[1]
        assert out[2].startswith("lifetime tallies:")
        assert len(out) == 3

    def test_stats_with_cache_disabled(self, capsys, monkeypatch):
        from repro.perf.cache import configure_cache

        configure_cache(enabled=False)
        try:
            assert main(["cache", "stats"]) == 0
            assert "sim cache: disabled" in capsys.readouterr().out
        finally:
            monkeypatch.delenv("REPRO_CACHE", raising=False)
            configure_cache(enabled=True)


class TestParserFast:
    def test_fast_flag_rejected_where_unsupported(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure2", "--fast"])

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_crossval_machine_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crossval-analytic", "--machine", "epyc"])
