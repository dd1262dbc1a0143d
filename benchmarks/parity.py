"""Semantic parity of the benchmark's simulations: base revision vs working tree.

A change that leaves the simulator's physics alone must leave every
``SimStats`` field alone but the host-side ones
(``repro.sim.stats._NON_SEMANTIC_FIELDS``: wall time, event count and
the batch tallies).  This script checks out the base revision and the
working tree side by side, as ``ab_pairs.py`` does, and in each runs
every simulation of the benchmark's ``sim_cold`` and ``sim_batch`` op
lists twice: once as the op configures it (batch paths on) and once
with both batch paths off.  It diffs the ``SimStats.to_dict()``
documents field by field and prints one line per difference.  It exits
1 on any difference and 0 when every simulation is identical.

Run ``python3 benchmarks/parity.py [--base REV] [--seed 1] [--sanitize]``
(``--base`` defaults to ``HEAD``; ``--sanitize`` runs both sides under
``REPRO_SANITIZE=1``).  The op lists are built at perfbench's full
size, the size the benchmark runs.  Each side runs in a child
process that imports ``repro`` and perfbench's ``workloads`` from its
own checkout, with the sim cache off.  A full-size check takes about
20 s on a 2-vCPU container, longer sanitized.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path
from typing import Any

from ab_pairs import checkout_sides, resolve_commit
from record_trajectory import REPO_ROOT


def collect(root: Path, seed: int, tmp: Path) -> list:
    """Every simulation of the ``sim_cold`` and ``sim_batch`` ops under ``root``.

    One entry per simulation and batch mode: ``{"op", "sim", "batch",
    "stats"}``, ``stats`` being the full ``SimStats.to_dict()``.
    """
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as wl
    from tracing import Probes, Tracer

    from repro.perf.cache import configure_cache
    from repro.sim import run_trace

    configure_cache(cache_dir=tmp / "cache", enabled=False)
    bench = wl.Bench(seed=seed, size=wl.SIZES["full"], tmp=tmp, tracer=Tracer(False))
    bench.probes = Probes(bench.tracer, bench.recorder)
    bench.probes.install()
    try:
        batch_ops = wl.SimBatch(bench)
        batch_ops.setup()
        runs = []
        for op in wl.SimOps(bench).ops() + batch_ops.ops():
            op.run()
            for k, record in enumerate(bench.recorder.take_sims()):
                off = replace(record.config, batch=False, batch_miss=False)
                for batch, stats in (
                    (True, record.stats),
                    (False, run_trace(record.trace, off)),
                ):
                    doc = stats.to_dict()
                    runs.append(
                        {"op": op.op_id, "sim": k, "batch": batch, "stats": doc}
                    )
    finally:
        bench.probes.remove()
    return runs


def _leaves(value: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """``(path, scalar)`` for every scalar inside nested dicts and lists."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def diff_runs(base: list, new: list, ignored: Iterable[str]) -> list:
    """One line per difference between two sides' :func:`collect` lists.

    Top-level stats fields named in ``ignored`` are skipped.  Values are
    compared by ``repr``: a float must match bit for bit (``-0.0`` is
    not ``0.0``), NaN matches NaN, and ``1`` is not ``1.0``.
    """
    ignored = set(ignored)

    def keyed(runs: list) -> dict:
        return {(r["op"], r["sim"], r["batch"]): r["stats"] for r in runs}

    base_runs, new_runs = keyed(base), keyed(new)
    lines = []
    for key in sorted(base_runs.keys() | new_runs.keys()):
        op, sim, batch = key
        name = f"{op}#{sim} batch={'on' if batch else 'off'}"
        if key not in new_runs or key not in base_runs:
            side = "new" if key not in new_runs else "base"
            lines.append(f"{name}: no such simulation on the {side} side")
            continue
        b, n = (
            dict(_leaves({k: v for k, v in runs[key].items() if k not in ignored}))
            for runs in (base_runs, new_runs)
        )
        for path in sorted(b.keys() | n.keys()):
            old, cur = repr(b.get(path, "<absent>")), repr(n.get(path, "<absent>"))
            if old != cur:
                lines.append(f"{name}: {path}: base {old} != new {cur}")
    return lines


def main(argv: list | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sanitize", action="store_true", help="run under REPRO_SANITIZE=1")
    # Child mode: collect one side's runs into a JSON file.
    p.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.side is not None:
        with tempfile.TemporaryDirectory(prefix="parity-side-") as tmp:
            runs = collect(args.side, args.seed, Path(tmp))
        args.out.write_text(json.dumps(runs))
        return 0

    base_sha = resolve_commit(args.base)
    env = dict(os.environ)
    env.pop("REPRO_SANITIZE", None)
    if args.sanitize:
        env["REPRO_SANITIZE"] = "1"
    runs = {}
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        roots = checkout_sides(base_sha, Path(tmp))
        for side, root in roots.items():
            out = Path(tmp) / f"{side}.json"
            child = [sys.executable, str(Path(__file__).resolve()), "--side", str(root)]
            child += ["--out", str(out), "--seed", str(args.seed)]
            subprocess.run(child, cwd=root, env=env, check=True)
            runs[side] = json.loads(out.read_text())

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.sim.stats import _NON_SEMANTIC_FIELDS

    lines = diff_runs(runs["base"], runs["new"], _NON_SEMANTIC_FIELDS)
    for line in lines:
        print(line)
    mode = " under REPRO_SANITIZE=1" if args.sanitize else ""
    verdict = f"{len(lines)} difference(s)" if lines else "identical"
    print(
        f"parity vs {base_sha[:12]}{mode}: {len(runs['new'])} runs "
        f"(seed {args.seed}), {verdict}"
    )
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
