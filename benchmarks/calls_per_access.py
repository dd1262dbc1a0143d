"""Python calls and bytecodes per simulated access: base revision vs working tree.

Wall time drifts with the host; the number of Python calls a
simulation makes, and the number of bytecodes its Python frames
execute, do not.  This script checks out the base revision and the
working tree side by side, as ``parity.py`` does, and in each runs
every simulation of the benchmark's ``sim_cold`` and ``sim_batch`` op
lists at perfbench's full size, with the sim cache off, in five
groups:

* ``xmem``: the X-Mem levels of ``sim_cold`` (six per paper machine),
* ``cells``: the paper-workload cells of ``sim_cold``,
* ``app``: the mini-app traces of ``sim_cold``,
* ``resident``: ``sim_batch``'s L1-resident kernel,
* ``scatter``: ``sim_batch``'s cold-miss scatter kernels.

A sixth group, ``probe``, holds the simulations ``analytic``'s set-up
makes: the five ``calibrate_from_probes`` levels on each paper machine
at perfbench's ``probe_accesses``.

Each simulation is rerun twice (``run_trace`` on the trace and config
the op simulated): once under ``cProfile``, which counts every call,
Python and built-in, and once under a ``sys.settrace`` hook with
``frame.f_trace_opcodes`` set, which counts every bytecode a Python
frame executes.  A group's figures are the summed counts over its
summed ``SimStats.issued_total()``.  Both move only when the code path
does.  A call count cannot see work done inline; a bytecode count can,
but it cannot see work done in C: a numpy pass over a whole run of
accesses is a handful of bytecodes, so the numpy-heavy ``resident``
and ``scatter`` groups read low.  The script prints one table row per
group, then the whole result as one JSON line.

Run ``python3 benchmarks/calls_per_access.py [--base REV] [--seed 1]``
(``--base`` defaults to ``HEAD``).  Each side runs in a child process
that imports ``repro`` and perfbench's ``workloads`` from its own
checkout.  The bytecode hook slows a simulation about tenfold; a check
takes about a minute per side.
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
from typing import Any, Callable, List, Tuple

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

#: The group of ``analytic``'s set-up simulations, reported last.
PROBE_GROUP = "probe"


def count_bytecodes(fn: Callable[..., Any], *args: Any) -> Tuple[Any, int]:
    """``fn(*args)`` and the number of bytecodes its Python frames executed."""
    executed = 0

    def local(frame: Any, event: str, arg: Any) -> Any:
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    def on_call(frame: Any, event: str, arg: Any) -> Any:
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, executed


def probe_ops(wl: Any, bench: Any) -> List[Any]:
    """The ``probe`` group: one op per paper machine, as ``analytic`` sets up."""

    def calibrate(machine: Any) -> Callable[[], Any]:
        return lambda: wl.calibrate_from_probes(
            machine, accesses_per_thread=bench.size.probe_accesses
        )

    return [
        wl.Op(f"{PROBE_GROUP}/{m.name}", calibrate(m)) for m in wl.paper_machines()
    ]


def collect(root: Path, seed: int, tmp: Path) -> dict:
    """Per group: simulations, accesses, and calls and bytecodes per access."""
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
        groups = {
            group: [op for op in ops if op.op_id.startswith(prefix)]
            for group, prefix in GROUPS.items()
        }
        groups[PROBE_GROUP] = probe_ops(wl, bench)
        out = {}
        for group, group_ops in groups.items():
            sims = calls = bytecodes = accesses = 0
            for op in group_ops:
                op.run()
                for record in bench.recorder.take_sims():
                    profile = cProfile.Profile()
                    stats = profile.runcall(run_trace, record.trace, record.config)
                    _, executed = count_bytecodes(
                        run_trace, record.trace, record.config
                    )
                    sims += 1
                    calls += pstats.Stats(profile).total_calls
                    bytecodes += executed
                    accesses += stats.issued_total()
            out[group] = {
                "sims": sims,
                "calls": calls,
                "bytecodes": bytecodes,
                "accesses": accesses,
                "per_access": calls / accesses if accesses else None,
                "bytecodes_per_access": bytecodes / accesses if accesses else None,
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

    print(
        f"{'group':<10} {'sims':>5} {'accesses':>10} "
        f"{'calls base':>10} {'new':>8} {'bytecodes base':>14} {'new':>8} {'change':>7}"
    )
    for group in [*GROUPS, PROBE_GROUP]:
        base, new = sides["base"][group], sides["new"][group]
        b, n = base["bytecodes_per_access"], new["bytecodes_per_access"]
        print(
            f"{group:<10} {new['sims']:>5} {new['accesses']:>10} "
            f"{base['per_access']:>10.2f} {new['per_access']:>8.2f} "
            f"{b:>14.1f} {n:>8.1f} {n / b - 1:>+7.1%}"
        )
    print(json.dumps({"base": base_sha, "seed": args.seed, **sides}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
