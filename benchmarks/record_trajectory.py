"""Append one point of the repo benchmark's trajectory to BENCH_perfbench.json.

Runs the command ``BENCHMARK.json`` declares on each workload with
``--seed 1`` and ``--trace 0`` (end-to-end metrics), then ``--trace 1``
(per-layer metrics), keeping the JSON result each run prints last.  Every
number is the benchmark's own, host-speed normalized; this script times
nothing.  Run ``python3 benchmarks/record_trajectory.py`` (no arguments);
it exits 1 if a run fails, reports ``correct: false`` or lacks a metric.

A point is labelled with ``HEAD``'s SHA and ``"dirty": true`` when the
working tree differs from ``HEAD`` (ignoring the trajectory file
itself): the numbers then belong to uncommitted code, not to that SHA.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_perfbench.json"
SEED = 1


def _git(*args: str) -> str | None:
    """Standard output of one git command in the repo, or None if it fails."""
    try:
        run = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return run.stdout if run.returncode == 0 else None


def is_dirty(porcelain: str) -> bool:
    """Does ``git status --porcelain`` list a path besides the trajectory file?"""
    for line in porcelain.splitlines():
        # "XY path", or "XY old -> new" for a rename; odd names are quoted.
        path = line[3:].split(" -> ")[-1].strip('"')
        if path and path != TRAJECTORY.name:
            return True
    return False


def last_json(stdout: str) -> dict | None:
    """The JSON object on a run's last non-empty output line, if any."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def assemble(
    spec: dict, sha: str, date: str, outputs: dict, dirty: bool | None = False
) -> tuple[dict, list]:
    """The point and its failed runs, from workload -> (trace 0, trace 1) stdout.

    ``dirty`` says whether the measured tree had uncommitted changes
    (None: unknown).
    """
    workloads, failures = {}, []
    for name, stdouts in outputs.items():
        entry = {"correct": True, "attempted": 0, "failed": 0}
        for kind, stdout in zip(("end_to_end", "per_layer"), stdouts):
            result = last_json(stdout) or {}
            metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            missing = [m["name"] for m in spec[kind] if m["name"] not in metrics]
            if result.get("correct") is not True or missing:
                entry["correct"] = False
                why = f"correct={result.get('correct')}, {len(missing)} missing metrics"
                failures.append(f"{name} {kind}: {why}")
            entry["attempted"] += result.get("attempted", 0)
            entry["failed"] += result.get("failed", 0)
            entry[kind] = metrics
        workloads[name] = entry
    point = {"git_sha": sha, "dirty": dirty, "date": date, "workloads": workloads}
    return point, failures


def load_history(path: Path) -> list:
    """The existing trajectory, or a fresh one if the file is unusable.

    A corrupt or missing file costs one warning, not the measurement
    just taken; an unusable original is kept as ``<name>.corrupt``.
    """
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        problem = f"unreadable ({exc})"
    else:
        if isinstance(history, list):
            return history
        problem = f"not a JSON list (got {type(history).__name__})"
    backup = path.with_suffix(path.suffix + ".corrupt")
    try:
        path.replace(backup)
        kept = f"; original kept at {backup.name}"
    except OSError:
        kept = ""
    warning = f"warning: {path.name} is {problem}; starting a fresh trajectory{kept}"
    print(warning, file=sys.stderr)
    return []


def append_point(path: Path, entry: dict) -> None:
    """Append one record to the trajectory file (never overwrites data)."""
    history = load_history(path)
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")


def run_benchmark(
    spec: dict, workload: str, trace: int, *, seed: int = SEED, root: Path = REPO_ROOT
) -> str:
    """Standard output of one benchmark run in the checkout at ``root``."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    print(" ".join(argv), flush=True)
    run = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    return run.stdout


def main() -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    # The tree as measured: read before the runs, which may leave files.
    sha = (_git("rev-parse", "HEAD") or "unknown").strip()
    status = _git("status", "--porcelain")
    dirty = None if status is None else is_dirty(status)
    outputs = {
        name: [run_benchmark(spec, name, trace) for trace in (0, 1)] for name in names
    }
    date = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    point, failures = assemble(spec, sha, date, outputs, dirty)
    append_point(TRAJECTORY, point)
    label = " (uncommitted changes)" if dirty else ""
    print(f"recorded {sha[:12]}{label} -> {TRAJECTORY.name}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
