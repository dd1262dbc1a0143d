"""The fingerprint-parity check (benchmarks/parity.py), without running it.

Only the diff is tested: which fields of two sides' ``SimStats``
documents count as different.  Collecting the runs takes minutes.
"""

import importlib.util
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def parity(monkeypatch):
    # The script imports its siblings, as it does when run as
    # ``python3 benchmarks/parity.py``.
    monkeypatch.syspath_prepend(str(_BENCHMARKS))
    path = _BENCHMARKS / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(op, batch, **stats):
    doc = {
        "elapsed_ns": 100.0,
        "memory": {"requests": 4, "latency_sum_ns": 350.5},
        "cores": [{"issued_accesses": 8}],
        "events_fired": 20,
        "wall_s": 0.5,
    }
    doc.update(stats)
    return {"op": op, "sim": 0, "batch": batch, "stats": doc}


IGNORED = ("wall_s", "events_fired")


def test_identical_sides_have_no_difference(parity):
    runs = [_run("a", True), _run("a", False)]
    assert parity.diff_runs(runs, [dict(r) for r in runs], IGNORED) == []


def test_non_semantic_fields_are_ignored(parity):
    base = [_run("a", True)]
    new = [_run("a", True, events_fired=12, wall_s=0.1)]
    assert parity.diff_runs(base, new, IGNORED) == []


def test_nested_float_difference_is_reported_by_path(parity):
    base = [_run("a", True), _run("a", False)]
    new = [
        _run("a", True, memory={"requests": 4, "latency_sum_ns": 350.50000000000006}),
        _run("a", False, cores=[{"issued_accesses": 8}, {"issued_accesses": 1}]),
    ]
    assert parity.diff_runs(base, new, IGNORED) == [
        "a#0 batch=off: cores[1].issued_accesses: base '<absent>' != new 1",
        "a#0 batch=on: memory.latency_sum_ns: base 350.5 != new 350.50000000000006",
    ]


def test_values_compare_by_repr(parity):
    # -0.0 == 0.0 and 1 == 1.0 in Python, but not bit for bit.
    base = [_run("a", True, elapsed_ns=0.0), _run("b", True, elapsed_ns=1)]
    new = [_run("a", True, elapsed_ns=-0.0), _run("b", True, elapsed_ns=1.0)]
    assert len(parity.diff_runs(base, new, IGNORED)) == 2
    nan = [_run("a", True, elapsed_ns=float("nan"))]
    assert parity.diff_runs(nan, [dict(r) for r in nan], IGNORED) == []


def test_missing_simulation_is_reported(parity):
    base = [_run("a", True), _run("b", True)]
    new = [_run("a", True), _run("c", True)]
    assert parity.diff_runs(base, new, IGNORED) == [
        "b#0 batch=on: no such simulation on the new side",
        "c#0 batch=on: no such simulation on the base side",
    ]


def test_tallies_sum_each_side(parity):
    runs = [
        _run("a", True, batch_accesses=5, batch_fallbacks={"tie": 1, "dirty": 2}),
        _run("a", False, wakeups_in_place=3, batch_fallbacks={"tie": 4}),
    ]
    assert parity.tallies(runs) == {
        "events_fired": 40,
        "wakeups_in_place": 3,
        "batch_accesses": 5,
        "batch_miss_accesses": 0,
        "batch_fallbacks": {"dirty": 2, "tie": 5},
    }
