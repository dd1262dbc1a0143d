"""Python calls per simulated access: base revision vs working tree.

Wall time drifts with the host; the number of Python calls a
simulation makes does not.  This script checks out the base revision
and the working tree side by side, as ``parity.py`` does, and in each
runs every simulation of the benchmark's ``sim_cold`` and ``sim_batch``
op lists at perfbench's full size, with the sim cache off, in five
groups:

* ``xmem``: the X-Mem levels of ``sim_cold`` (six per paper machine),
* ``cells``: the paper-workload cells of ``sim_cold``,
* ``app``: the mini-app traces of ``sim_cold``,
* ``resident``: ``sim_batch``'s L1-resident kernel,
* ``scatter``: ``sim_batch``'s cold-miss scatter kernels.

Each simulation is rerun under ``cProfile`` (``run_trace`` on the
trace and config the op simulated), and a group's figure is the summed
``total_calls`` over its summed ``SimStats.issued_total()``.  A
profiler counts every call, Python and built-in, so the figure moves
only when the code path does.  The script prints one table row per
group and side, then the whole result as one JSON line.

Run ``python3 benchmarks/calls_per_access.py [--base REV] [--seed 1]``
(``--base`` defaults to ``HEAD``).  Each side runs in a child process
that imports ``repro`` and perfbench's ``workloads`` from its own
checkout.  A check takes about a minute per side.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_pairs import checkout_sides, resolve_commit

#: Group name -> op-id prefix, in report order.  Every simulated op of
#: ``sim_cold`` and ``sim_batch`` falls in exactly one group.
GROUPS = {
    "xmem": "xmem/",
    "cells": "cell/",
    "app": "app/",
    "resident": "resident/",
    "scatter": "scatter/",
}


def collect(root: Path, seed: int, tmp: Path) -> dict:
    """Per group: simulations, summed calls, summed accesses, calls per access."""
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
        ops = wl.SimOps(bench).ops() + batch_ops.ops()
        out = {}
        for group, prefix in GROUPS.items():
            sims = calls = accesses = 0
            for op in ops:
                if not op.op_id.startswith(prefix):
                    continue
                op.run()
                for record in bench.recorder.take_sims():
                    profile = cProfile.Profile()
                    stats = profile.runcall(run_trace, record.trace, record.config)
                    sims += 1
                    calls += pstats.Stats(profile).total_calls
                    accesses += stats.issued_total()
            out[group] = {
                "sims": sims,
                "calls": calls,
                "accesses": accesses,
                "per_access": calls / accesses if accesses else None,
            }
    finally:
        bench.probes.remove()
    return out


def main(argv: list | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    p.add_argument("--seed", type=int, default=1)
    # Child mode: measure one side into a JSON file.
    p.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.side is not None:
        with tempfile.TemporaryDirectory(prefix="calls-side-") as tmp:
            result = collect(args.side, args.seed, Path(tmp))
        args.out.write_text(json.dumps(result))
        return 0

    base_sha = resolve_commit(args.base)
    sides = {}
    with tempfile.TemporaryDirectory(prefix="calls-") as tmp:
        roots = checkout_sides(base_sha, Path(tmp))
        for side, root in roots.items():
            out = Path(tmp) / f"{side}.json"
            child = [sys.executable, str(Path(__file__).resolve()), "--side", str(root)]
            child += ["--out", str(out), "--seed", str(args.seed)]
            subprocess.run(child, cwd=root, check=True)
            sides[side] = json.loads(out.read_text())

    print(f"{'group':<10} {'sims':>5} {'accesses':>10} {'base':>8} {'new':>8}")
    for group in GROUPS:
        base, new = sides["base"][group], sides["new"][group]
        print(
            f"{group:<10} {new['sims']:>5} {new['accesses']:>10} "
            f"{base['per_access']:>8.1f} {new['per_access']:>8.1f}"
        )
    print(json.dumps({"base": base_sha, "seed": args.seed, **sides}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
