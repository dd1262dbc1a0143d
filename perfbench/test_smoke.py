"""Smoke test of the benchmark itself: every workload at the tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must finish in seconds, emit every metric that
``BENCHMARK.json`` declares for its mode with the declared unit, use
only names matching ``[A-Za-z0-9_.-]+``, and fail no op.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HEADER = re.compile(r"^workload \S+ seed \d+ .*: \d+ passes x (\d+) ops")


def _run(workload: str, trace: int, seed: int = 3) -> tuple:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.5",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    ops_per_pass = int(HEADER.match(lines[0]).group(1))
    return json.loads(lines[-1]), ops_per_pass


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload: str, trace: int) -> None:
    result, _ = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0  # fail_frac == 0


def test_held_out_seed_passes_with_the_same_op_counts() -> None:
    first, ops_first = _run("sim_cold", 0, seed=3)
    second, ops_second = _run("sim_cold", 0, seed=12345)
    assert first["correct"] and second["correct"]
    assert ops_first == ops_second


def test_refuses_without_sources(tmp_path: Path) -> None:
    bench_dir = tmp_path / HERE.name
    bench_dir.mkdir()
    for src in HERE.glob("*.py"):
        (bench_dir / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "sim_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
