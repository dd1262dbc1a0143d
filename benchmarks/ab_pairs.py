"""Alternating A/B benchmark pairs: a base revision against the working tree.

A single benchmark run cannot carry a performance claim: the host's
speed drifts between runs.  This script clones a base revision into a
temporary directory (``git clone``) and copies the working tree's
files (tracked and untracked, minus what ``.gitignore`` lists) beside
it, so both sides run from fresh directories on one file system.
Then for each given seed it runs the command ``BENCHMARK.json``
declares once on each side, swapping which goes first from pair to
pair so that drift cancels.
It prints one JSON line: for every end-to-end metric, the median of
each side, the interquartile range of the base runs and the number of
pairs the working tree won.  A claimed gain should win nearly every
pair, and its median should move by more than the base IQR.

Run ``python3 benchmarks/ab_pairs.py --workload replay_warm --seeds 11 12
13 14`` (``--base REV`` picks the base revision, default ``HEAD``).  The
runs are parsed as ``record_trajectory.py`` parses them.  The script
exits 1 if any run fails its checks or lacks a metric; pairs with a
failed run are left out of the summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from record_trajectory import REPO_ROOT, assemble, is_dirty, run_benchmark


def _git(*args: str, cwd: Path = REPO_ROOT) -> str:
    """Standard output of one git command; raises if it fails."""
    run = subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    )
    return run.stdout


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's files, as ``git`` sees them, under ``dest``."""
    listing = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listing.split("\0")):
        src = REPO_ROOT / name
        if src.is_file():  # a tracked file may be deleted in the tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def iqr(values: list) -> float:
    """Distance between the first and third quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(spec: dict, pairs: list) -> dict:
    """Per-metric medians, base IQR and wins over ``(base, new)`` metric dicts."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        new = [n[name] for _, n in pairs]
        wins = sum(1 for b, n in zip(base, new) if (n < b if lower else n > b))
        out[name] = {
            "better": metric["better"],
            "base": statistics.median(base) if base else None,
            "new": statistics.median(new) if new else None,
            "base_iqr": iqr(base),
            "wins": wins,
        }
    return out


def _measure(spec: dict, workload: str, seed: int, root: Path) -> dict | None:
    """End-to-end metrics of one run, or None if it failed."""
    stdout = run_benchmark(spec, workload, 0, seed=seed, root=root)
    point, failures = assemble(spec, "", "", {workload: [stdout]})
    for failure in failures:
        print(f"FAILED seed {seed} in {root}: {failure}", file=sys.stderr)
    return None if failures else point["workloads"][workload]["end_to_end"]


def main(argv: list | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    args = p.parse_args(argv)

    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
    # The tree as measured: read before the runs, which may leave files.
    head = _git("rev-parse", "HEAD").strip()
    dirty = is_dirty(_git("status", "--porcelain"))
    pairs, failed = [], 0
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        roots = {"base": Path(tmp) / "base", "new": Path(tmp) / "new"}
        _git("clone", "--quiet", "--no-checkout", str(REPO_ROOT), str(roots["base"]))
        _git("checkout", "--quiet", base_sha, cwd=roots["base"])
        copy_working_tree(roots["new"])
        for i, seed in enumerate(args.seeds):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            result = {
                side: _measure(spec, args.workload, seed, roots[side]) for side in order
            }
            if result["base"] is None or result["new"] is None:
                failed += 1
            else:
                pairs.append((result["base"], result["new"]))
    summary = {
        "workload": args.workload,
        "base": base_sha,
        "head": head,
        "dirty": dirty,
        "seeds": args.seeds,
        "pairs": len(pairs),
        "failed_pairs": failed,
        "metrics": summarize(spec, pairs),
    }
    print(json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
