"""Record per-bench performance-trajectory points.

Each named bench appends a snapshot of its headline numbers to
``BENCH_<name>.json`` at the repo root.  Every file holds a JSON list;
each run appends one record (never overwrites), so the files accumulate
performance trajectories across commits.  Registered benches:

* ``sim_throughput`` — per-machine event-engine throughput (events/sec)
  on the standard X-Mem load workload, columnar trace-generation
  throughput, warm content-addressed-cache replay speedup, and the
  batch-stepping fast-path speedup with its fingerprint-equality check;
* ``analytic_speedup`` — the closed-form queueing fast path
  (``characterize --fast``): per-machine wall time of an analytic
  profile vs an uncached event-engine characterization sweep, and the
  resulting speedup factor.

Every record carries the git SHA and UTC date for provenance.

Usage::

    PYTHONPATH=src python benchmarks/record_trajectory.py [bench ...]

With no arguments every registered bench is recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.machines import get_machine  # noqa: E402
from repro.machines.registry import paper_machines  # noqa: E402
from repro.perf.cache import SimCache, cached_run_trace  # noqa: E402
from repro.perfmodel.queueing import (  # noqa: E402
    analytic_profile,
    calibrate_from_probes,
)
from repro.sim import SimConfig, run_trace  # noqa: E402
from repro.sim.coltrace import ColumnarThreadTrace, ColumnarTrace  # noqa: E402
from repro.workloads.generators import random_updates  # noqa: E402
from repro.xmem.kernels import (  # noqa: E402
    resident_trace,
    scatter_trace,
    throughput_trace,
)
from repro.xmem.runner import XMemConfig, XMemRunner  # noqa: E402

MACHINES = ("skl", "knl", "a64fx")
THREADS = 4
ACCESSES = 4000

#: Bumped when a record's shape changes; readers can dispatch on it.
#: v3: sim_throughput records gain the ``miss_batch`` block.
SCHEMA_VERSION = 3


def out_path(bench: str) -> Path:
    """Trajectory file for one named bench (``BENCH_<name>.json``)."""
    return REPO_ROOT / f"BENCH_{bench}.json"


#: Back-compat alias: the original single-bench output location.
OUT_PATH = out_path("sim_throughput")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _events_per_sec(machine_name: str) -> float:
    machine = get_machine(machine_name)
    trace = throughput_trace(
        threads=THREADS,
        accesses_per_thread=ACCESSES,
        line_bytes=machine.line_bytes,
        gap_cycles=10.0,
    )
    stats = run_trace(trace, SimConfig(machine=machine, sim_cores=THREADS))
    return stats.events_per_sec()


def _gen_throughput() -> float:
    """Columnar generation rate (accesses/sec) for the random-update mix."""
    import numpy as np

    n = 200_000
    start = time.perf_counter()
    threads = tuple(
        ColumnarThreadTrace.from_columns(
            t, random_updates(n, 64, np.random.default_rng(17 + t), region_id=t)
        )
        for t in range(THREADS)
    )
    ColumnarTrace(threads=threads, routine="trajectory", line_bytes=64)
    return THREADS * n / (time.perf_counter() - start)


def _warm_cache_speedup(tmp_dir: Path) -> float:
    machine = get_machine("skl")
    trace = throughput_trace(
        threads=THREADS,
        accesses_per_thread=ACCESSES,
        line_bytes=machine.line_bytes,
        gap_cycles=10.0,
    )
    config = SimConfig(machine=machine, sim_cores=THREADS)
    cache = SimCache(tmp_dir, enabled=True)
    cold = cached_run_trace(trace, config, cache=cache)
    start = time.perf_counter()
    cached_run_trace(trace, config, cache=cache)
    replay_s = time.perf_counter() - start
    return cold.wall_s / replay_s if replay_s > 0 else float("inf")


def _batch_speedup() -> dict:
    machine = get_machine("skl")
    trace = resident_trace(
        threads=THREADS,
        accesses_per_thread=40_000,
        line_bytes=machine.line_bytes,
    )
    event = run_trace(trace, SimConfig(machine=machine, sim_cores=THREADS, batch=False))
    batch = run_trace(trace, SimConfig(machine=machine, sim_cores=THREADS, batch=True))
    return {
        "speedup": batch.accesses_per_sec() / event.accesses_per_sec(),
        "batch_accesses_per_sec": batch.accesses_per_sec(),
        "event_accesses_per_sec": event.accesses_per_sec(),
        "batched_fraction": batch.batch_accesses / batch.issued_total(),
        "fingerprint_equal": batch.fingerprint() == event.fingerprint(),
    }


def _miss_batch_speedup() -> dict:
    """Batched miss retirement (ISSUE 10): cold scatter, drainable gaps."""
    machine = get_machine("knl")
    trace = scatter_trace(
        threads=1,
        accesses_per_thread=20_000,
        line_bytes=machine.line_bytes,
    )
    common = dict(machine=machine, sim_cores=1, window_per_core=12, tlb_entries=0)
    event = run_trace(trace, SimConfig(batch=False, **common))
    batch = run_trace(trace, SimConfig(batch=True, **common))
    return {
        "speedup": event.wall_s / batch.wall_s if batch.wall_s > 0 else float("inf"),
        "event_wall_s": event.wall_s,
        "batch_wall_s": batch.wall_s,
        "batched_fraction": batch.batch_miss_accesses / batch.issued_total(),
        "fingerprint_equal": batch.fingerprint() == event.fingerprint(),
    }


def _analytic_speedup() -> dict:
    """Closed-form fast path vs uncached event-engine characterization.

    Per paper machine: wall time of one full ``--fast`` answer (probe
    calibration done beforehand, so what a warm query costs) against one
    uncached event-engine X-Mem sweep — the exact work
    ``characterize --fast`` replaces.
    """
    per_machine = {}
    config = XMemConfig(levels=6, accesses_per_thread=1500, batch=False)
    for machine in paper_machines():
        params = calibrate_from_probes(
            machine,
            sim_cores=config.sim_cores,
            accesses_per_thread=config.accesses_per_thread,
        )
        start = time.perf_counter()
        analytic_profile(machine, params)
        fast_s = time.perf_counter() - start
        runner = XMemRunner(machine, config)
        sim_s = _uncached_sweep_seconds(runner)
        per_machine[machine.name] = {
            "fast_s": fast_s,
            "sim_s": sim_s,
            "speedup": sim_s / fast_s if fast_s > 0 else float("inf"),
        }
    return per_machine


def _uncached_sweep_seconds(runner: XMemRunner) -> float:
    """Wall seconds for one event-engine characterization, cache-inert."""
    from repro.perf.cache import configure_cache
    import os

    saved_dir = os.environ.get("REPRO_CACHE_DIR")
    saved_enabled = os.environ.get("REPRO_CACHE")
    configure_cache(enabled=False)
    try:
        start = time.perf_counter()
        runner.characterize()
        return time.perf_counter() - start
    finally:
        if saved_dir is not None:
            os.environ["REPRO_CACHE_DIR"] = saved_dir
        if saved_enabled is not None:
            os.environ["REPRO_CACHE"] = saved_enabled
        else:
            os.environ.pop("REPRO_CACHE", None)
        configure_cache(enabled=True)


def load_history(path: Path) -> list:
    """The existing trajectory, or a fresh one if the file is unusable.

    The trajectory file is an accumulating artifact that survives
    branch switches, merges, and interrupted runs — a corrupt or
    missing file must cost one warning, not the measurement that was
    just taken.  The unusable original is preserved next to the new
    file as ``<name>.corrupt`` so nothing is silently destroyed.
    """
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        problem = f"unreadable ({exc})"
        history = None
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
    print(
        f"warning: {path.name} is {problem}; starting a fresh trajectory{kept}",
        file=sys.stderr,
    )
    return []


def append_point(path: Path, entry: dict) -> None:
    """Append one record to the trajectory file (never overwrites data)."""
    history = load_history(path)
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")


def _provenance() -> dict:
    """The fields every bench record shares."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _record_sim_throughput() -> dict:
    """Measure one ``sim_throughput`` trajectory record."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        warm_speedup = _warm_cache_speedup(Path(tmp))
    return {
        **_provenance(),
        "events_per_sec": {m: _events_per_sec(m) for m in MACHINES},
        "trace_gen_accesses_per_sec": _gen_throughput(),
        "warm_cache_speedup": warm_speedup,
        "batch": _batch_speedup(),
        "miss_batch": _miss_batch_speedup(),
    }


def _record_analytic_speedup() -> dict:
    """Measure one ``analytic_speedup`` trajectory record."""
    return {**_provenance(), "machines": _analytic_speedup()}


#: Registered benches: name -> zero-arg measurement function.
BENCHES = {
    "sim_throughput": _record_sim_throughput,
    "analytic_speedup": _record_analytic_speedup,
}


def record(benches=None) -> dict:
    """Measure the named benches (default: all) and append their points."""
    entries = {}
    for name in benches or sorted(BENCHES):
        if name not in BENCHES:
            raise SystemExit(
                f"unknown bench {name!r}; registered: {', '.join(sorted(BENCHES))}"
            )
        entry = BENCHES[name]()
        append_point(out_path(name), entry)
        entries[name] = entry
    return entries


def _summarize(name: str, entry: dict) -> None:
    """Print one bench record's headline numbers."""
    print(f"recorded {name} point {entry['git_sha'][:12]} -> {out_path(name).name}")
    if name == "sim_throughput":
        for mname, eps in entry["events_per_sec"].items():
            print(f"  {mname}: {eps / 1e3:.0f}k events/s")
        print(
            f"  trace gen: {entry['trace_gen_accesses_per_sec'] / 1e6:.1f}M acc/s"
        )
        print(f"  warm cache replay: {entry['warm_cache_speedup']:.0f}x")
        batch = entry["batch"]
        print(
            f"  batch fast path: {batch['speedup']:.1f}x "
            f"(fingerprint equal: {batch['fingerprint_equal']})"
        )
        miss = entry["miss_batch"]
        print(
            f"  miss batch fast path: {miss['speedup']:.1f}x "
            f"({miss['batched_fraction']:.0%} batched, "
            f"fingerprint equal: {miss['fingerprint_equal']})"
        )
    elif name == "analytic_speedup":
        for mname, row in entry["machines"].items():
            print(
                f"  {mname}: analytic {row['fast_s'] * 1e3:.1f} ms vs "
                f"sim {row['sim_s']:.2f} s = {row['speedup']:.0f}x"
            )


if __name__ == "__main__":
    for bench_name, bench_entry in record(sys.argv[1:] or None).items():
        _summarize(bench_name, bench_entry)
