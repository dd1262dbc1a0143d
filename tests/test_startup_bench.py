"""The start-up timing script (benchmarks/startup.py), without running it.

The timed commands must still parse, and the summary arithmetic must
hold over canned timings.  The runs themselves take about a minute.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cli import build_parser

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def startup(monkeypatch):
    # The script imports its siblings, as it does when run as
    # ``python3 benchmarks/startup.py``.
    monkeypatch.syspath_prepend(str(_BENCHMARKS))
    path = _BENCHMARKS / "startup.py"
    spec = importlib.util.spec_from_file_location("startup", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_command_parses(startup):
    parser = build_parser()
    for args in startup.COMMANDS.values():
        assert callable(parser.parse_args(args).func)


def test_summarize(startup):
    names = list(startup.COMMANDS)
    times = {
        "base": {name: [0.4, 0.5, 0.6] for name in names},
        "new": {name: [0.1, 0.7, 0.2] for name in names},
    }
    summary = startup.summarize(times)
    assert list(summary) == names
    row = summary[names[0]]
    assert row["base"] == pytest.approx(0.5)
    assert row["new"] == pytest.approx(0.2)
    assert row["base_iqr"] == pytest.approx(0.1)
    assert row["wins"] == 2


def test_side_env_points_at_its_checkout(startup, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env = startup.side_env(tmp_path / "base", tmp_path / "cache")
    assert env["PYTHONPATH"] == str(tmp_path / "base" / "src")
    assert env["REPRO_CACHE_DIR"] == str(tmp_path / "cache")
    assert "REPRO_SANITIZE" not in env
