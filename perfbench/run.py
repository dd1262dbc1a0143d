"""Repository benchmark: four closed-loop workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload sim_cold --seed 1 --seconds 16 --trace 0

Workloads: ``sim_cold``, ``sim_batch``, ``analytic``, ``replay_warm``
(see ``perfbench/README.md``).  With ``--trace 0`` the last line of
standard output is one JSON object carrying every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric instead, and the
spans are written to ``.perfbench_out/``.  ``--size tiny`` shrinks
every workload for the smoke test (``perfbench/test_smoke.py``).

Each run is hermetic: it uses a private, fresh sim-cache directory
under ``.perfbench_tmp/`` (removed on exit), never ``~/.cache/repro``,
clears ``REPRO_SANITIZE``, ``REPRO_FAULTS``, ``REPRO_JOBS`` and
``REPRO_CACHE``, and refuses to report if the sanitizer or fault
injection is armed anyway.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A fresh interpreter importing every layer the benchmark drives: the
#: process-start part of ``setup_s``, timed several times per run.
IMPORT_PROBE = [
    sys.executable,
    "-c",
    f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).resolve().parent)!r}];"
    " import workloads",
]

IMPORT_REPEATS = 3

#: Environment that could change what a run measures.
CLEARED_ENV = ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_JOBS", "REPRO_CACHE")

#: Tail percentiles tried, highest first; a workload uses the highest
#: one with at least ten ops beyond it at its minimum op count.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A run stops starting passes after this many seconds, whatever its
#: minimum pass count, so that it ends well inside three minutes.
HARD_STOP_S = 110.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "sim_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "paper_rows_ok": "count",
    "xval_cells_ok": "count",
}

FALLBACK_REASONS = (
    "smt",
    "l3",
    "faults",
    "concurrent_events",
    "dirty",
    "merge",
    "tie",
    "conflict",
    "window_stall",
    "mshr_pressure",
    "handoff",
    "prefetcher",
)

#: Per-layer host times: metric -> span names whose self time it sums.
LAYER_SPANS = {
    "workloads.gen_s": ("workloads.Workload.generate_trace",),
    "apps.extract_s": ("apps.extract_trace",),
    "xmem.kernel_s": ("xmem.XMemRunner.measure_level", "xmem.kernels"),
    "cache.digest_s": ("perf.digest_for",),
    "cache.load_s": ("perf.SimCache.load",),
    "cache.store_s": ("perf.SimCache.store",),
    "sim.run_s": ("perf.cached_run_trace",),
    "perfmodel.solve_s": ("perfmodel.solve_operating_point",),
    "perfmodel.fast_s": ("perfmodel.solve_operating_point_fast",),
    "core.analyze_s": (
        "core.RoutineAnalyzer.analyze_run",
        "core.RoutineAnalyzer.analyze_bandwidth_gbs",
    ),
    "core.advisor_s": ("core.Advisor.run",),
    "experiments.reproduce_s": ("experiments.reproduce_table",),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    "perfmodel.calibrate_s": "s",
    "trace.columnar_accesses": "count",
    "trace.object_accesses": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "fraction",
    "cache.bytes_written": "bytes",
    "sim.events": "count",
    "sim.events_per_access": "ratio",
    "sim.host_us_per_event": "us",
    "sim.batch_share": "fraction",
    "sim.batch_miss_share": "fraction",
    **{f"sim.batch_fallbacks.{r}": "count" for r in FALLBACK_REASONS},
    "sim.batch_fallbacks.other": "count",
    "sim.l1_mshr_occ": "entries",
    "sim.l2_mshr_occ": "entries",
    "sim.mshr_full_frac": "fraction",
    "sim.mem_latency_ns": "ns",
    "sim.prefetch_frac": "fraction",
    "sim.littles_rel_err_max": "ratio",
    "perfmodel.solve_calls": "count",
    "perfmodel.solve_iters_mean": "count",
    "perfmodel.fast_share": "fraction",
    "sim.batch_divergent_ops": "count",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


@dataclass
class OpRecord:
    op_id: str
    #: Measured host seconds.
    latency_s: float
    result: Any
    sims: list
    error: Optional[str] = None
    #: Host-speed probe sample taken just before the op.
    probe: int = 0
    #: Measured -> reference seconds (see ``hostspeed``).
    scale: float = 1.0
    signature: Any = None
    failed: Optional[str] = None

    @property
    def cost_s(self) -> float:
        """Host seconds at the reference host speed."""
        return self.latency_s * self.scale


@dataclass
class Pass:
    records: List[OpRecord]
    self_times: Dict[str, float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    bytes_written: int = 0
    solves: list = field(default_factory=list)
    spans: int = 0
    columnar: int = 0
    objects: int = 0
    sim_rate: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(r.cost_s for r in self.records)

    @property
    def raw_wall_s(self) -> float:
        return sum(r.latency_s for r in self.records)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload",
        required=True,
        choices=("sim_cold", "sim_batch", "analytic", "replay_warm"),
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail_percentile(min_ops: int) -> float:
    for pct in TAIL_LADDER:
        if min_ops * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return TAIL_LADDER[-1]


def nearest_rank(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def _accesses(trace: Any) -> int:
    return sum(len(t) for t in trace.threads)


def _cache_counters() -> tuple:
    from repro.perf.cache import get_cache

    c = get_cache().counters
    return (c.hits, c.misses)


def run_ops(ops: list, bench: Any, speed: Any, columnar_type: type) -> Pass:
    """Run one op list back to back.

    Host-speed probes and bookkeeping run between ops, outside the op
    timings and outside every span.
    """
    tracer, recorder = bench.tracer, bench.recorder
    counters_before = _cache_counters()
    bytes_before = recorder.bytes_written
    solves_before = len(recorder.solves)
    mark = tracer.mark()
    records = []
    for op in ops:
        probe = speed.maybe_probe()
        tracer.op_id = op.op_id
        start = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                result = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        tracer.op_id = None
        records.append(
            OpRecord(op.op_id, latency, result, recorder.take_sims(), error, probe)
        )
    speed.probe()
    for rec in records:
        rec.scale = speed.scale(rec.probe, rec.probe + 1)
    counters_after = _cache_counters()
    done = Pass(records)
    done.hits = counters_after[0] - counters_before[0]
    done.misses = counters_after[1] - counters_before[1]
    done.bytes_written = recorder.bytes_written - bytes_before
    done.solves = recorder.solves[solves_before:]
    if tracer.enabled:
        done.self_times = tracer.self_times(mark)
        done.spans = len(tracer.spans) - mark
    for rec in records:
        for sim in rec.sims:
            if isinstance(sim.trace, columnar_type):
                done.columnar += _accesses(sim.trace)
            else:
                done.objects += _accesses(sim.trace)
    return done


def sign(records: List[OpRecord], keep_traces: bool) -> None:
    """Attach each record's deterministic signature; drop traces unless kept."""
    for rec in records:
        if rec.error is None:
            rec.signature = (
                rec.result.value,
                tuple(s.stats.fingerprint() for s in rec.sims),
            )
        if not keep_traces:
            for sim in rec.sims:
                sim.trace = None


def check(records: List[OpRecord], baseline: Dict[str, Any], replay: bool) -> None:
    """Mark failed records: raised, failed own check, or drifted from baseline."""
    for rec in records:
        if rec.error is not None:
            rec.failed = rec.error
        elif not rec.result.ok:
            rec.failed = "output check failed"
        elif rec.signature != baseline.get(rec.op_id, rec.signature):
            rec.failed = "result differs from the baseline pass"
        elif replay and any(s.simulated for s in rec.sims):
            rec.failed = "replay missed the sim cache"


def sim_rate(pairs: List[tuple]) -> float:
    """Issued accesses per reference host second over ``(stats, scale)`` pairs."""
    seconds = sum(stats.wall_s * scale for stats, scale in pairs)
    return sum(stats.issued_total() for stats, _ in pairs) / seconds if seconds else 0.0


def per_layer(
    passes: List[Pass], calibrate_s: List[float], wall_s: float
) -> Dict[str, float]:
    n = len(passes)
    out: Dict[str, float] = {}
    for metric, names in LAYER_SPANS.items():
        # Scaled to the reference host speed like the pass's op costs.
        out[metric] = statistics.median(
            sum(p.self_times.get(name, 0.0) for name in names) * p.wall_s / p.raw_wall_s
            for p in passes
        )
    out["perfmodel.calibrate_s"] = statistics.median(calibrate_s) if calibrate_s else 0.0
    out["trace.columnar_accesses"] = sum(p.columnar for p in passes) / n
    out["trace.object_accesses"] = sum(p.objects for p in passes) / n
    hits = sum(p.hits for p in passes)
    misses = sum(p.misses for p in passes)
    out["cache.hits"] = hits / n
    out["cache.misses"] = misses / n
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.bytes_written"] = sum(p.bytes_written for p in passes) / n

    fresh = [(s.stats, r.scale) for p in passes for r in p.records for s in r.sims if s.simulated]
    issued = sum(s.issued_total() for s, _ in fresh)
    events = sum(s.events_fired for s, _ in fresh)
    out["sim.events"] = events / n
    out["sim.events_per_access"] = events / issued if issued else 0.0
    out["sim.host_us_per_event"] = (
        sum(s.wall_s * scale for s, scale in fresh) / events * 1e6 if events else 0.0
    )
    out["sim.batch_share"] = (
        sum(s.batch_accesses for s, _ in fresh) / issued if issued else 0.0
    )
    out["sim.batch_miss_share"] = (
        sum(s.batch_miss_accesses for s, _ in fresh) / issued if issued else 0.0
    )
    fallbacks: Dict[str, int] = {}
    for s, _ in fresh:
        for reason, count in s.batch_fallbacks.items():
            key = reason if reason in FALLBACK_REASONS else "other"
            fallbacks[key] = fallbacks.get(key, 0) + count
    for reason in FALLBACK_REASONS + ("other",):
        out[f"sim.batch_fallbacks.{reason}"] = fallbacks.get(reason, 0) / n

    stats = [s.stats for p in passes for r in p.records for s in r.sims]
    k = len(stats)
    out["sim.l1_mshr_occ"] = sum(s.avg_occupancy(1) for s in stats) / k if k else 0.0
    out["sim.l2_mshr_occ"] = sum(s.avg_occupancy(2) for s in stats) / k if k else 0.0
    full = sum(t.full_time_ns for s in stats for t in s.l1_occupancy + s.l2_occupancy)
    span = sum(s.elapsed_ns * (len(s.l1_occupancy) + len(s.l2_occupancy)) for s in stats)
    out["sim.mshr_full_frac"] = full / span if span else 0.0
    lat_count = sum(s.memory.latency_count for s in stats)
    out["sim.mem_latency_ns"] = (
        sum(s.memory.latency_sum_ns for s in stats) / lat_count if lat_count else 0.0
    )
    total_bytes = sum(s.memory.total_bytes for s in stats)
    out["sim.prefetch_frac"] = (
        sum(s.memory.prefetch_bytes for s in stats) / total_bytes if total_bytes else 0.0
    )
    out["sim.littles_rel_err_max"] = max(
        (s.littles_law_check(2)["relative_error"] for s in stats), default=0.0
    )

    solves = [pt for p in passes for pt in p.solves]
    slow = [it for it, fast in solves if not fast]
    out["perfmodel.solve_calls"] = len(solves) / n
    out["perfmodel.solve_iters_mean"] = sum(slow) / len(slow) if slow else 0.0
    out["perfmodel.fast_share"] = (
        sum(1 for _, fast in solves if fast) / len(solves) if solves else 0.0
    )
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = sum(p.spans for p in passes) / n
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache-initial")
    os.environ["XDG_CACHE_HOME"] = str(tmp / "xdg")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run(args: argparse.Namespace, tmp: Path) -> int:
    sys.path.insert(0, str(SRC))
    from repro.analysis.sanitizer import sanitize_enabled
    from repro.resilience.faults import get_injector

    import workloads as wl
    from hostspeed import HostSpeed
    from tracing import Probes, Tracer

    if sanitize_enabled() or get_injector().active:
        print(
            "error: sanitizer or fault injection is armed; refusing to report",
            file=sys.stderr,
        )
        return 2

    tracer = Tracer(enabled=bool(args.trace))
    bench = wl.Bench(seed=args.seed, size=wl.SIZES[args.size], tmp=tmp, tracer=tracer)
    bench.probes = Probes(tracer, bench.recorder)
    bench.probes.install()
    try:
        return _measure(args, bench, wl, HostSpeed())
    finally:
        bench.probes.remove()


def _measure(args: argparse.Namespace, bench: Any, wl: Any, speed: Any) -> int:
    from hostspeed import REFERENCE_S
    from repro.sim.coltrace import ColumnarTrace

    tracer, size = bench.tracer, bench.size
    workload = wl.WORKLOADS[args.workload](bench)

    import_times = []
    for _ in range(IMPORT_REPEATS):
        before = speed.probe()
        start = time.perf_counter()
        subprocess.run(IMPORT_PROBE, check=True, timeout=120)
        elapsed = time.perf_counter() - start
        import_times.append(elapsed * speed.scale(before, speed.probe()))
    setup_times, calibrate_s = [], []
    for _ in range(size.setup_repeats):
        mark = tracer.mark()
        before = speed.probe()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        scale = speed.scale(before, speed.probe())
        setup_times.append(elapsed * scale)
        if tracer.enabled:
            calibrate_s.append(
                tracer.total_time("perfmodel.calibrate_from_probes", mark) * scale
            )
        bench.recorder.take_sims()
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    def run(op_list: list) -> Pass:
        return run_ops(op_list, bench, speed, ColumnarTrace)

    ops = workload.ops()
    fill: List[OpRecord] = []
    fill_ops = workload.prepare()
    if fill_ops is not None:
        fill = run(fill_ops).records
        sign(fill, keep_traces=False)
        check(fill, {}, replay=False)

    min_passes = size.min_passes[workload.name]
    passes: List[Pass] = []
    baseline = {r.op_id: r.signature for r in fill}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and (
            (len(passes) >= min_passes and elapsed >= args.seconds)
            or elapsed >= HARD_STOP_S
        ):
            break
        workload.before_pass()
        gc.collect()  # start every pass from the same collector state
        done = run(ops)
        sign(done.records, keep_traces=not passes and workload.batch_reference)
        baseline = baseline or {r.op_id: r.signature for r in done.records}
        check(done.records, baseline, workload.replay)
        done.sim_rate = sim_rate(
            [(s.stats, r.scale) for r in done.records for s in r.sims if s.simulated]
        )
        if passes and not tracer.enabled:
            for rec in done.records:  # keep peak memory the program's, not ours
                rec.result = rec.signature = None
                for sim in rec.sims:
                    sim.stats = None
        passes.append(done)
    timed = [r for p in passes for r in p.records]
    baseline_records = fill or passes[0].records

    divergent = set()
    if workload.batch_reference:
        for rec in passes[0].records:
            for sim in rec.sims:
                if wl.batch_off_fingerprint(sim) != sim.stats.fingerprint():
                    divergent.add(rec.op_id)
                sim.trace = None
        for rec in timed:
            unexpected = rec.op_id in divergent - wl.KNOWN_BATCH_DIVERGENCE
            if unexpected and rec.failed is None:
                rec.failed = "fingerprint differs from the batch-off simulation"

    verify = run(workload.verification_ops()).records
    sign(verify, keep_traces=False)
    check(verify, {}, replay=False)

    checked = fill + timed + verify
    failures = [r for r in checked if r.failed]
    first = {r.op_id: r.result for r in baseline_records + verify if r.result}
    xval = sum(1 for res in first.values() if res.xval)
    rows_ok = sum(res.rows[0] for res in first.values() if res.rows)

    costs = [r.cost_s for r in timed if r.error is None]
    by_op: Dict[str, List[float]] = {}
    for rec in timed:
        if rec.error is None:
            by_op.setdefault(rec.op_id, []).append(rec.cost_s)
    pct = tail_percentile(min_passes * len(ops))
    wall_s = statistics.median(p.wall_s for p in passes)
    rates = [p.sim_rate for p in passes]
    if not any(rates):  # no timed op simulates: use the fill or verification
        rates = [sim_rate([(s.stats, r.scale) for r in fill + verify for s in r.sims])]

    print(
        f"workload {workload.name} seed {args.seed} size {args.size} "
        f"trace {args.trace}: {len(passes)} passes x {len(ops)} ops "
        f"({len(costs)} timed ops)"
    )
    print(
        f"  host speed: probe median {statistics.median(speed.samples) * 1e3:.3f} ms "
        f"(reference {REFERENCE_S * 1e3:.3f} ms); measured wall_s "
        f"{statistics.median(p.raw_wall_s for p in passes):.6g} s"
    )
    beyond = len(costs) - int(-(-len(costs) * pct // 100))
    print(f"  op_tail_ms is p{pct:g} over {len(costs)} ops ({beyond} beyond it)")
    print(
        f"  fail_frac = {len(failures) / len(checked):.6g} "
        f"({len(failures)} of {len(checked)} ops)"
    )
    for rec in failures[:10]:
        print(f"  FAILED {rec.op_id}: {rec.failed}")
    for op_id in sorted(divergent & wl.KNOWN_BATCH_DIVERGENCE):
        print(f"  known batch/event fingerprint divergence: {op_id}")

    if args.trace:
        metrics = per_layer(passes, calibrate_s, wall_s)
        metrics["sim.batch_divergent_ops"] = len(divergent)
        units = PER_LAYER_UNITS
        span_path = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(span_path)
        print(f"  {len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_p50_ms": statistics.median(
                statistics.median(v) for v in by_op.values()
            ) * 1e3,
            "op_tail_ms": nearest_rank(costs, pct) * 1e3,
            "sim_accesses_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failures) / len(checked),
            "paper_rows_ok": rows_ok,
            "xval_cells_ok": xval,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(checked),
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
