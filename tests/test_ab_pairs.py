"""The A/B pairs harness (benchmarks/ab_pairs.py), without running it.

Only the summary arithmetic is tested: medians, the base IQR and the
win count over canned ``(base, new)`` metric pairs.  The benchmark
runs themselves take minutes.
"""

import importlib.util
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def ab(monkeypatch):
    # The script imports its sibling record_trajectory, as it does when
    # run as ``python3 benchmarks/ab_pairs.py``.
    monkeypatch.syspath_prepend(str(_BENCHMARKS))
    path = _BENCHMARKS / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {
    "end_to_end": [
        {"name": "wall_s", "better": "lower"},
        {"name": "rate", "better": "higher"},
    ]
}


def test_iqr(ab):
    assert ab.iqr([5.0]) == 0.0
    assert ab.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0)


def test_summarize_counts_wins_in_each_direction(ab):
    pairs = [
        ({"wall_s": 1.0, "rate": 10.0}, {"wall_s": 0.9, "rate": 11.0}),
        ({"wall_s": 1.2, "rate": 10.0}, {"wall_s": 1.0, "rate": 10.0}),
        ({"wall_s": 1.1, "rate": 12.0}, {"wall_s": 1.3, "rate": 9.0}),
    ]
    out = ab.summarize(SPEC, pairs)
    assert out["wall_s"] == {
        "better": "lower",
        "base": 1.1,
        "new": 1.0,
        "base_iqr": pytest.approx(0.1),
        "wins": 2,
    }
    # A tie is not a win.
    assert out["rate"]["wins"] == 1
    assert out["rate"]["base"] == 10.0 and out["rate"]["new"] == 10.0


def test_summarize_without_pairs(ab):
    out = ab.summarize(SPEC, [])
    assert out["wall_s"]["base"] is None and out["wall_s"]["wins"] == 0
