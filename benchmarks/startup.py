"""Start-up cost of ``repro`` commands: a base revision against the working tree.

perfbench times operations inside one warm interpreter, so it never
sees what a user of the CLI waits for: a fresh process that imports the
package, runs one command and exits.  This script times exactly that.
It clones a base revision and copies the working tree as
``ab_pairs.py`` does, gives each side a private sim cache, warms it
with one untimed run of every command, and then runs each command as a
fresh ``python -m repro.cli`` process once per side per round, swapping
which side goes first from round to round so that host drift cancels.

It prints one JSON line: for every command, the median wall time of
each side (seconds), the interquartile range of the base runs and the
number of rounds the working tree won.  It gates nothing: the exit
code is 1 only if a command fails.

Run ``python3 benchmarks/startup.py`` (``--base REV``, default
``HEAD``; ``--rounds N``, default 10).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_pairs import _git, checkout_sides, iqr, resolve_commit
from record_trajectory import is_dirty

#: The commands timed, each as the arguments after ``repro``.
COMMANDS = {
    "machines": ["machines"],
    "reproduce": ["reproduce", "--table", "all"],
    "recipe-score": ["recipe-score"],
    "advisor": ["advisor", "--workload", "isx", "--machine", "skl"],
    "analyze-fast": [
        "analyze",
        "--fast",
        "--machine",
        "skl",
        "--bandwidth",
        "106.9",
        "--pattern",
        "random",
    ],
}

#: Environment that could change what a command does or loads.
CLEARED_ENV = ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_JOBS", "REPRO_CACHE")


def side_env(root: Path, cache_dir: Path) -> dict:
    """Environment running ``root``'s package with a private sim cache."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def time_command(args: list, root: Path, env: dict) -> float:
    """Wall seconds of one fresh ``repro`` process; raises if it fails."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        check=True,
    )
    return time.perf_counter() - start


def summarize(times: dict) -> dict:
    """Per-command medians, base IQR and wins over ``{side: {cmd: [s]}}``."""
    out = {}
    for name in COMMANDS:
        base, new = times["base"][name], times["new"][name]
        out[name] = {
            "base": statistics.median(base),
            "new": statistics.median(new),
            "base_iqr": iqr(base),
            "wins": sum(1 for b, n in zip(base, new) if n < b),
        }
    return out


def main(argv: list | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    base_sha = resolve_commit(args.base)
    head = _git("rev-parse", "HEAD").strip()
    dirty = is_dirty(_git("status", "--porcelain"))
    times: dict = {"base": {}, "new": {}}
    with tempfile.TemporaryDirectory(prefix="startup-") as tmp:
        roots = checkout_sides(base_sha, Path(tmp))
        envs = {
            side: side_env(root, Path(tmp) / f"cache-{side}")
            for side, root in roots.items()
        }
        try:
            for side in roots:  # warm each side's cache, untimed
                for cmd in COMMANDS.values():
                    time_command(cmd, roots[side], envs[side])
            for i in range(args.rounds):
                order = ("base", "new") if i % 2 == 0 else ("new", "base")
                for name, cmd in COMMANDS.items():
                    for side in order:
                        elapsed = time_command(cmd, roots[side], envs[side])
                        times[side].setdefault(name, []).append(elapsed)
        except subprocess.CalledProcessError as exc:
            print(f"FAILED {exc.cmd}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
    summary = {
        "base": base_sha,
        "head": head,
        "dirty": dirty,
        "rounds": args.rounds,
        "commands": summarize(times),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
