"""The trajectory recorder (benchmarks/record_trajectory.py), without running it.

Only the cheap pure layers are tested: persistence (``load_history`` /
``append_point``) and turning canned benchmark output into a point
(``assemble``).  The benchmark runs themselves take minutes and are
exercised by CI's "Record trajectory points" step.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "record_trajectory.py"
)


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("record_trajectory", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_file_starts_fresh(recorder, tmp_path):
    assert recorder.load_history(tmp_path / "absent.json") == []


def test_valid_history_preserved(recorder, tmp_path):
    path = tmp_path / "bench.json"
    history = [{"git_sha": "abc", "workloads": {}}]
    path.write_text(json.dumps(history))
    assert recorder.load_history(path) == history


def test_corrupt_json_warns_and_starts_fresh(recorder, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text("{not json at all")
    assert recorder.load_history(path) == []
    err = capsys.readouterr().err
    assert "warning" in err and "fresh trajectory" in err
    # The damaged original is preserved, not destroyed.
    backup = path.with_suffix(".json.corrupt")
    assert backup.exists() and backup.read_text() == "{not json at all"
    assert not path.exists()


def test_non_list_payload_warns_and_starts_fresh(recorder, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"oops": "a dict"}))
    assert recorder.load_history(path) == []
    assert "not a JSON list" in capsys.readouterr().err


def test_append_point_accumulates(recorder, tmp_path):
    path = tmp_path / "bench.json"
    recorder.append_point(path, {"n": 1})
    recorder.append_point(path, {"n": 2})
    history = json.loads(path.read_text())
    assert [entry["n"] for entry in history] == [1, 2]


def test_append_point_recovers_from_corruption(recorder, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text("\x00\x01 garbage")
    recorder.append_point(path, {"n": 1})
    capsys.readouterr()
    assert json.loads(path.read_text()) == [{"n": 1}]


SPEC = {
    "end_to_end": [{"name": "wall_s"}, {"name": "ok_frac"}],
    "per_layer": [{"name": "sim.events"}],
}


def _stdout(correct, metrics, attempted=10, failed=0):
    """Canned benchmark output: log lines, then the JSON result line."""
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
    }
    return (
        "workload w seed 1 size full trace 0: 3 passes x 4 ops\n"
        "  wall_s = 1.5 s\n" + json.dumps(result) + "\n"
    )


def test_assemble_builds_point_and_surfaces_failure(recorder):
    outputs = {
        "good": (
            _stdout(True, {"wall_s": 1.5, "ok_frac": 1.0}),
            _stdout(True, {"sim.events": 42}, attempted=12),
        ),
        "bad": (
            _stdout(False, {"wall_s": 2.0, "ok_frac": 0.9}, failed=1),
            _stdout(True, {"sim.events": 7}),
        ),
    }
    point, failures = recorder.assemble(SPEC, "abc123", "2026-01-01T00:00:00Z", outputs)
    assert point["git_sha"] == "abc123" and point["date"] == "2026-01-01T00:00:00Z"
    assert point["workloads"]["good"] == {
        "correct": True,
        "attempted": 22,
        "failed": 0,
        "end_to_end": {"wall_s": 1.5, "ok_frac": 1.0},
        "per_layer": {"sim.events": 42},
    }
    bad = point["workloads"]["bad"]
    assert bad["correct"] is False and bad["failed"] == 1
    assert bad["end_to_end"]["ok_frac"] == 0.9
    assert len(failures) == 1 and failures[0].startswith("bad end_to_end")


def test_assemble_flags_missing_result_and_metric(recorder):
    outputs = {
        "crashed": ("Traceback (most recent call last):\n", ""),
        "partial": (_stdout(True, {"wall_s": 1.0}), _stdout(True, {"sim.events": 1})),
    }
    point, failures = recorder.assemble(SPEC, "abc", "d", outputs)
    crashed = point["workloads"]["crashed"]
    assert crashed["correct"] is False and crashed["attempted"] == 0
    assert crashed["end_to_end"] == {} and crashed["per_layer"] == {}
    assert point["workloads"]["partial"]["correct"] is False
    assert [f.split(":")[0] for f in failures] == [
        "crashed end_to_end",
        "crashed per_layer",
        "partial end_to_end",
    ]


@pytest.mark.parametrize(
    "porcelain, dirty",
    [
        ("", False),
        (" M BENCH_perfbench.json\n", False),
        (" M src/repro/sim/cache.py\n", True),
        (" M BENCH_perfbench.json\n?? notes.txt\n", True),
        ("R  old.py -> new.py\n", True),
        ('?? "odd name.py"\n', True),
        ("R  BENCH_perfbench.json -> moved.json\n", True),
    ],
)
def test_is_dirty_ignores_only_the_trajectory_file(recorder, porcelain, dirty):
    assert recorder.is_dirty(porcelain) is dirty


def test_assemble_records_dirty_flag(recorder):
    outputs = {
        "w": (
            _stdout(True, {"wall_s": 1.0, "ok_frac": 1.0}),
            _stdout(True, {"sim.events": 1}),
        )
    }
    clean, _ = recorder.assemble(SPEC, "abc", "d", outputs)
    dirty, _ = recorder.assemble(SPEC, "abc", "d", outputs, dirty=True)
    assert clean["dirty"] is False and dirty["dirty"] is True
    assert dirty["git_sha"] == "abc"
