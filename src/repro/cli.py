"""Command-line interface: ``repro <command>``.

Commands mirror the paper's workflow:

* ``repro machines`` — list the Table III platforms;
* ``repro characterize --machine skl [--out profile.json]`` — run the
  X-Mem substitute and print/save the latency profile (the
  once-per-machine prerequisite);
* ``repro analyze --machine skl --bandwidth 106.9 --pattern random`` —
  per-routine analysis: MLP, binding MSHR file, recipe guidance;
* ``repro ingest --machine skl --file counters.csv [--format perf]`` —
  the same analysis from measured counter data (CSV or ``perf stat``
  output; ``--lenient`` skips bad CSV rows and widens the error budget);
* ``repro simulate --machine knl --workload isx [--trace FILE]`` — run
  a workload trace on the event simulator and analyze the result;
* ``repro reproduce [--table isx|hpcg|...|all]`` — regenerate the paper
  case-study tables and the agreement summary;
* ``repro figure2`` — the extended-roofline experiment;
* ``repro recipe-score`` — Figure 1 aggregate accuracy;
* ``repro headroom --machine skl`` — the recipe's verdict map across
  utilizations and access patterns;
* ``repro lint [paths]`` — reprolint's domain rules (determinism,
  units, cache keys, slots, machine specs) over source trees;
* ``repro trace export/import`` — write a generated trace to an
  mmap-able ``.npz`` file / read one back and summarize it (feed it to
  ``repro simulate --trace FILE``);
* ``repro advisor --workload isx --machine skl [--fast]`` — run the
  Figure-1 recipe loop to convergence (``--fast`` tags eligible solves
  as fast-path answers, falling back with a stated reason);
* ``repro crossval-analytic`` — the analytic-vs-simulator error table
  backing the ``--fast`` error bounds (docs/QUEUEING.md);
* ``repro cache stats`` — entry count, bytes, quarantined files, and
  lifetime hit/miss tallies of the SimStats cache;
* ``repro cache gc --max-bytes 500M --max-age 30d`` — evict cache
  entries oldest-first to fit a byte budget and/or age horizon.

``characterize`` and ``analyze`` accept ``--fast`` to answer from a
five-probe latency profile instead of a full X-Mem sweep.  Only the
simulation-backed commands (``characterize``, ``simulate``,
``crossval-analytic``) take ``--jobs/-j``, ``--no-cache`` and
``--sanitize`` and print a ``sim cache:`` line; ``reproduce``,
``recipe-score`` and ``advisor`` solve the analytic model and run no
simulation.  The global ``-v`` prints solver diagnostics (segments
examined, final residual) and, for ``simulate``, the batch fast path's
fallback reasons.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.classify import AccessPattern, Classification
from .errors import ReproError
from .machines.registry import get_machine, machine_names, paper_machines
from .units import ns_to_us, to_gb_per_s


def _apply_perf_flags(args: argparse.Namespace) -> None:
    """Honor ``--no-cache``/``--sanitize`` before any runs."""
    if getattr(args, "no_cache", False):
        from .perf.cache import configure_cache

        configure_cache(enabled=False)
    if getattr(args, "sanitize", False):
        from .analysis.sanitize_flag import configure_sanitize

        # Mirrored into REPRO_SANITIZE so fan_out workers inherit it.
        configure_sanitize(True)


def _print_sanitizer_summary() -> None:
    """One-line reprosan verdict when the instrumented mode is on."""
    from .analysis.sanitize_flag import sanitize_enabled

    if not sanitize_enabled():
        return
    from .analysis.sanitizer import last_report

    report = last_report()
    if report is None:
        print("sanitizer: enabled, but no instrumented run executed")
        return
    queues = ", ".join(sorted(q.get("queue", "?") for q in report.queues)) or "none"
    print(
        f"sanitizer: {'ok' if report.ok else 'VIOLATIONS'} — "
        f"{report.events_checked} events checked, queues audited: {queues}"
    )


def _print_batch_notice(args: argparse.Namespace, stats: "object") -> None:
    """One-line ``-v`` diagnosis when the batch fast path fell back.

    A zero-batched-fraction run is otherwise silent (the paths are
    bit-identical by contract), so surface *why*: per-reason fallback
    counts from :attr:`~repro.sim.stats.SimStats.batch_fallbacks`
    (``smt`` or ``tlb`` = batch disabled wholesale for an SMT or TLB
    run, ``handoff``/``mshr_pressure``/… = individual runs replayed
    through the event engine; reason table in docs/PERFORMANCE.md).
    """
    if not getattr(args, "verbose", False):
        return
    fallbacks = getattr(stats, "batch_fallbacks", None)
    if not fallbacks:
        return
    reasons = ", ".join(f"{r}={n}" for r, n in sorted(fallbacks.items()))
    print(
        f"  batch fast path fell back: {reasons} "
        "(reason table: docs/PERFORMANCE.md)"
    )


def _print_cache_summary() -> None:
    """One-line sim-cache accounting for the command that just ran."""
    from .perf.cache import get_cache

    cache = get_cache()
    if cache.enabled:
        print(f"sim cache: {cache.counters.summary()} ({cache.cache_dir})")
        cache.flush_tallies()
    else:
        print("sim cache: disabled")


def _print_point_diagnostics(point: "object", args: argparse.Namespace) -> None:
    """Solver health line (segments examined + final residual) under ``-v``."""
    if not getattr(args, "verbose", False):
        return
    segments = getattr(point, "iterations", None)
    residual = getattr(point, "residual", None)
    if segments is None or residual is None:
        return
    print(f"  solver: {segments} segment(s) examined, final residual {residual:.2e}")


def _cmd_machines(_: argparse.Namespace) -> int:
    for machine in paper_machines():
        print(machine.describe())
    return 0


def _print_profile(profile: "object") -> None:
    """One line per curve point, in GB/s: what ``characterize`` prints."""
    print(
        f"latency profile for {profile.machine_name} "
        f"({len(profile.points)} samples, source={profile.source})"
    )
    for u, latency in profile.points:
        bw = to_gb_per_s(u * profile.peak_bw_bytes)
        print(f"  {bw:8.1f} GB/s -> {latency:6.1f} ns")


def _cmd_characterize(args: argparse.Namespace) -> int:
    import time

    _apply_perf_flags(args)
    machine = get_machine(args.machine)
    if getattr(args, "fast", False):
        from .analysis.sanitize_flag import sanitize_enabled

        if sanitize_enabled():
            # Stated-reason fallback: the whole point of sanitize mode
            # is to execute the instrumented simulator.
            print(
                "--fast declined: sanitize mode must execute the "
                "instrumented simulator; running the full sweep"
            )
        else:
            from .perfmodel.queueing import analytic_profile, calibrate_from_probes

            start = time.perf_counter()
            probes = calibrate_from_probes(machine)
            profile = analytic_profile(machine, probes, levels=args.levels)
            wall = time.perf_counter() - start
            _print_profile(profile)
            print(
                f"analytic fast path: {len(probes.points) - 1} cached probe "
                f"run(s), idle {probes.idle_latency_ns:.1f} ns; "
                f"{wall:.3f}s wall"
            )
            _print_cache_summary()
            if args.out:
                profile.save(args.out)
                print(f"saved to {args.out}")
            return 0
    from .xmem.runner import XMemConfig, characterize_machine

    config = XMemConfig(levels=args.levels)
    start = time.perf_counter()
    profile = characterize_machine(machine, config, jobs=args.jobs)
    wall = time.perf_counter() - start
    _print_profile(profile)
    print(f"characterized in {wall:.2f}s wall")
    _print_cache_summary()
    if args.out:
        profile.save(args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    profile = None
    if getattr(args, "fast", False):
        from .perfmodel.queueing import analytic_profile, calibrate_from_probes

        profile = analytic_profile(machine, calibrate_from_probes(machine))
    from .core.analyzer import RoutineAnalyzer

    analyzer = RoutineAnalyzer(machine, profile)
    pattern = AccessPattern(args.pattern)
    classification = Classification(
        pattern=pattern,
        prefetch_fraction=float("nan"),
        rationale=f"user-specified pattern: {pattern.value}",
    )
    report = analyzer.analyze_bandwidth_gbs(
        args.bandwidth, routine=args.routine, classification=classification
    )
    print(report.render())
    if profile is not None:
        from .core.uncertainty import analytic_widened_errors, mlp_uncertainty
        from .units import GIGA

        bw_err, lat_err = analytic_widened_errors()
        uncertainty = mlp_uncertainty(
            machine,
            args.bandwidth * GIGA,
            bandwidth_rel_error=bw_err,
            latency_rel_error=lat_err,
            profile=profile,
        )
        print(
            "analytic fast path: error budget widened to "
            f"±{bw_err:.0%} bandwidth / ±{lat_err:.0%} latency "
            "(cross-validated model error; see docs/QUEUEING.md)"
        )
        print(uncertainty.render())
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .io import (
        analyze_measurements,
        from_csv,
        from_csv_degraded,
        from_perf_output,
    )

    machine = get_machine(args.machine)
    text = Path(args.file).read_text()
    if args.format == "csv":
        if args.lenient:
            from .core.report import render_data_quality
            from .core.uncertainty import quality_widened_errors

            measurements, issues = from_csv_degraded(text)
            if issues:
                print(render_data_quality(issues))
                bw_err, lat_err = quality_widened_errors(issues)
                print(
                    f"error budget widened to ±{bw_err:.0%} bandwidth / "
                    f"±{lat_err:.0%} latency"
                )
                print()
        else:
            measurements = from_csv(text)
    else:
        if args.seconds is None:
            print("error: --seconds is required for perf input", file=sys.stderr)
            return 2
        measurements = [
            from_perf_output(
                text, machine, elapsed_seconds=args.seconds, routine=args.routine
            )
        ]
    for report in analyze_measurements(machine, measurements):
        print(report.render())
        print()
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.harness import reproduce_table

    if args.json:
        if args.table != "all":
            print(
                "error: --json writes every table; it cannot be combined "
                f"with --table {args.table}",
                file=sys.stderr,
            )
            return 2
        from .experiments.export import export_json

        export_json(args.json)
        print(f"wrote reproduction data to {args.json}")
        return 0

    if args.table == "all":
        from .experiments.paperdata import CASE_STUDY_TABLES

        names = list(CASE_STUDY_TABLES)
    else:
        names = [args.table]
    ok = True
    for name in names:
        table = reproduce_table(name)
        print(table.render())
        print()
        ok = ok and table.all_ok
    print("overall:", "all rows within tolerance" if ok else "SOME ROWS OUT OF BAND")
    return 0 if ok else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.analyzer import RoutineAnalyzer
    from .perf.cache import cached_run_trace
    from .sim import SimConfig

    _apply_perf_flags(args)
    machine = get_machine(args.machine)
    steps = tuple(args.steps.split(",")) if args.steps else ()
    if args.trace:
        # Imported trace file: skip generation entirely (the point of
        # ``repro trace export``); the thread count decides the cores.
        from .io import load_trace

        trace = load_trace(args.trace)
        routine = trace.routine
        cores = args.cores if args.cores is not None else len(trace.threads)
        label = f"from {args.trace}"
    else:
        if not args.workload:
            print(
                "error: either --workload or --trace is required",
                file=sys.stderr,
            )
            return 2
        from .workloads import get_workload
        from .workloads.base import TraceSpec

        workload = get_workload(args.workload)
        routine = workload.routine
        cores = args.cores if args.cores is not None else 2
        trace = workload.generate_trace(
            machine,
            steps=steps,
            spec=TraceSpec(threads=cores, accesses_per_thread=args.accesses),
        )
        label = "+ " + ", ".join(steps) if steps else "base"
    stats = cached_run_trace(
        trace,
        SimConfig(
            machine=machine,
            sim_cores=cores,
            window_per_core=args.window,
            batch=args.batch,
        ),
    )
    print(
        f"simulated {routine} ({label}) on a {cores}-core "
        f"{machine.name} slice:"
    )
    print(
        f"  elapsed {ns_to_us(stats.elapsed_ns):.1f} us, "
        f"slice bandwidth {to_gb_per_s(stats.bandwidth_bytes_per_s()):.1f} GB/s"
    )
    print(
        f"  L1 MSHR occ {stats.avg_occupancy(1):.2f} "
        f"(full {stats.mshr_full_fraction(1):.0%} of time), "
        f"L2 MSHR occ {stats.avg_occupancy(2):.2f}"
    )
    print(f"  prefetch fraction {stats.memory.prefetch_fraction:.0%}")
    _print_batch_notice(args, stats)
    print()
    report = RoutineAnalyzer(machine).analyze_run(stats)
    print(report.render())
    _print_sanitizer_summary()
    _print_cache_summary()
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .io import save_trace
    from .workloads import get_workload
    from .workloads.base import TraceSpec

    machine = get_machine(args.machine)
    workload = get_workload(args.workload)
    steps = tuple(args.steps.split(",")) if args.steps else ()
    spec_kwargs = {"threads": args.threads, "accesses_per_thread": args.accesses}
    if args.seed is not None:
        spec_kwargs["seed"] = args.seed
    trace = workload.generate_trace(
        machine, steps=steps, spec=TraceSpec(**spec_kwargs)
    )
    meta = save_trace(args.out, trace, compress=args.compress)
    size = Path(args.out).stat().st_size
    print(
        f"wrote {args.out}: {meta['routine']} trace, "
        f"{len(meta['thread_ids'])} threads x {args.accesses} accesses, "
        f"{size} bytes{' (compressed)' if args.compress else ''}"
    )
    print(f"sha256 {meta['sha256']}")
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    from .io import load_trace
    from .sim.coltrace import trace_digest

    trace = load_trace(args.file, verify=not args.no_verify)
    print(
        f"{args.file}: {trace.routine} trace, {len(trace.threads)} threads, "
        f"{trace.total_accesses} accesses ({trace.total_demand} demand), "
        f"line_bytes={trace.line_bytes}"
    )
    for thread in trace.threads:
        print(
            f"  thread {thread.thread_id}: {len(thread)} accesses "
            f"({thread.demand_count} demand)"
        )
    verified = "verified" if not args.no_verify else "unverified"
    print(f"sha256 {trace_digest(trace)} ({verified})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import LintRunner, all_rules, get_rule, render_json, render_text

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.prefix:6s} {rule.name}: {rule.description}")
        return 0
    if args.select:
        rules = tuple(
            get_rule(prefix.strip()) for prefix in args.select.split(",") if prefix.strip()
        )
    else:
        rules = all_rules()
    if args.ignore:
        # get_rule validates each prefix (typos should fail loudly, not
        # silently ignore nothing).
        ignored = {
            get_rule(prefix.strip()).prefix
            for prefix in args.ignore.split(",")
            if prefix.strip()
        }
        rules = tuple(rule for rule in rules if rule.prefix not in ignored)
    paths = [Path(p) for p in args.paths] if args.paths else _default_lint_paths()
    result = LintRunner(rules).run(paths)
    print(render_json(result) if args.format == "json" else render_text(result))
    if args.strict and result.violations:
        return 1
    return result.exit_code


def _default_lint_paths() -> "List[Path]":
    """``src`` and ``tests`` when run from a checkout, else the cwd."""
    from pathlib import Path

    candidates = [Path("src"), Path("tests")]
    existing = [p for p in candidates if p.is_dir()]
    return existing or [Path(".")]


def _cmd_headroom(args: argparse.Namespace) -> int:
    from .core.sweep import headroom_map, render_headroom_map

    machine = get_machine(args.machine)
    print(f"recipe verdict map for {machine.describe()}\n")
    print(render_headroom_map(headroom_map(machine)))
    return 0


def _cmd_figure2(_: argparse.Namespace) -> int:
    from .experiments.figure2 import reproduce_figure2

    print(reproduce_figure2().render())
    return 0


def _cmd_recipe_score(_: argparse.Namespace) -> int:
    from .experiments.figure1 import reproduce_figure1

    fig1 = reproduce_figure1()
    print(fig1.render())
    return 0 if fig1.unexplained_disagreements == 0 else 1


def _cmd_advisor(args: argparse.Namespace) -> int:
    from .core.advisor import Advisor
    from .workloads import get_workload

    machine = get_machine(args.machine)
    workload = get_workload(args.workload)
    result = Advisor(workload, machine, fast=args.fast).run()
    print(result.render())
    if result.final_prediction is not None:
        _print_point_diagnostics(result.final_prediction.point, args)
    return 0


def _cmd_crossval_analytic(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .experiments.analytic_crossval import (
        crossval_analytic,
        render_analytic_crossval,
        rows_to_json,
        table_ok,
    )

    _apply_perf_flags(args)
    machines = [get_machine(name) for name in args.machine] if args.machine else None
    rows = crossval_analytic(machines=machines)
    print(render_analytic_crossval(rows))
    _print_cache_summary()
    if args.json:
        Path(args.json).write_text(rows_to_json(rows))
        print(f"wrote error table to {args.json}")
    if not table_ok(rows):
        print(
            "FAIL: an eligible cell exceeds the documented error bound "
            "(or a fallback lacks a reason)",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_size(text: str) -> int:
    """Byte count with optional K/M/G/T suffix (powers of 1024)."""
    scales = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    raw = text.strip()
    scale = scales.get(raw[-1:].upper(), 1)
    if scale != 1:
        raw = raw[:-1]
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected e.g. 500M, 2G, or bytes)"
        )
    if value < 0:
        raise argparse.ArgumentTypeError("size must be non-negative")
    return value


def _parse_age(text: str) -> float:
    """Seconds with optional s/m/h/d/w suffix."""
    scales = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    raw = text.strip()
    scale = scales.get(raw[-1:].lower(), 0.0)
    if scale:
        raw = raw[:-1]
    else:
        scale = 1.0
    try:
        value = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r} (expected e.g. 30d, 12h, 45m, or seconds)"
        )
    if value < 0:
        raise argparse.ArgumentTypeError("age must be non-negative")
    return value


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from .perf.cache import gc_cache, get_cache

    cache = get_cache()
    if not cache.enabled:
        print("sim cache: disabled")
        return 0
    if args.max_bytes is None and args.max_age is None:
        print(
            "error: cache gc needs --max-bytes and/or --max-age",
            file=sys.stderr,
        )
        return 2
    result = gc_cache(cache, max_bytes=args.max_bytes, max_age_s=args.max_age)
    print(
        f"evicted {result.removed_entries} entr(ies), "
        f"{result.removed_bytes} bytes; kept {result.kept_entries} "
        f"entr(ies), {result.kept_bytes} bytes ({cache.cache_dir})"
    )
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from .perf.cache import collect_stats, get_cache

    cache = get_cache()
    if not cache.enabled:
        print("sim cache: disabled")
        return 0
    stats = collect_stats(cache)
    print(f"cache directory: {stats.cache_dir}")
    print(
        f"  total {stats.entries:6d} entr(ies), {stats.total_bytes:10d} bytes, "
        f"{stats.corrupt_entries} quarantined"
    )
    tallies = stats.tallies
    print(
        f"lifetime tallies: {tallies.summary()}, {tallies.errors} error(s)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLP/Little's-law performance analysis "
        "(ISPASS 2022 reproduction)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print solver diagnostics (segments examined, final residual) "
        "and, for simulate, why the batch fast path fell back",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared execution-performance flags for simulation-backed commands.
    perf_flags = argparse.ArgumentParser(add_help=False)
    perf_flags.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for independent simulations "
        "(default: REPRO_JOBS or serial; 0 = one per CPU)",
    )
    perf_flags.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed simulation result cache "
        "(the cache is also what lets a rerun resume an interrupted sweep)",
    )
    perf_flags.add_argument(
        "--sanitize",
        action="store_true",
        help="reprosan instrumented mode: audit Little's Law per queue, "
        "MSHR allocate/release balance, batch-replay equivalence, and "
        "stats conservation during the run (same as REPRO_SANITIZE=1; "
        "results are bit-identical but the run bypasses the sim cache)",
    )

    sub.add_parser("machines", help="list modeled platforms").set_defaults(
        func=_cmd_machines
    )

    p_char = sub.add_parser(
        "characterize",
        help="measure a latency profile",
        parents=[perf_flags],
    )
    p_char.add_argument("--machine", required=True, choices=machine_names())
    p_char.add_argument("--levels", type=int, default=12, help="load levels")
    p_char.add_argument("--out", help="save profile JSON here")
    p_char.add_argument(
        "--fast",
        action="store_true",
        help="answer from five probe runs instead of the full sweep "
        "(milliseconds once the probe runs are in the sim cache; "
        "declines with a stated reason under --sanitize)",
    )
    p_char.set_defaults(func=_cmd_characterize)

    p_an = sub.add_parser("analyze", help="analyze one routine measurement")
    p_an.add_argument("--machine", required=True, choices=machine_names())
    p_an.add_argument(
        "--bandwidth", type=float, required=True, help="observed GB/s"
    )
    p_an.add_argument(
        "--pattern",
        choices=[p.value for p in AccessPattern],
        default="streaming",
        help="access pattern (decides the binding MSHR file)",
    )
    p_an.add_argument("--routine", default="kernel")
    p_an.add_argument(
        "--fast",
        action="store_true",
        help="analyze against the five-probe latency profile "
        "and report cross-validated (widened) error bars",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_ing = sub.add_parser(
        "ingest", help="analyze measured counter data (CSV or perf output)"
    )
    p_ing.add_argument("--machine", required=True, choices=machine_names())
    p_ing.add_argument("--file", required=True, help="measurement file")
    p_ing.add_argument("--format", choices=["csv", "perf"], default="csv")
    p_ing.add_argument(
        "--seconds", type=float, help="elapsed time (perf format only)"
    )
    p_ing.add_argument("--routine", default="kernel")
    p_ing.add_argument(
        "--lenient",
        action="store_true",
        help="degraded mode (CSV only): skip bad rows, report them as "
        "data-quality issues, and widen the error budget",
    )
    p_ing.set_defaults(func=_cmd_ingest)

    p_rep = sub.add_parser("reproduce", help="regenerate paper tables")
    p_rep.add_argument(
        "--table",
        default="all",
        choices=["all", "isx", "hpcg", "pennant", "comd", "minighost", "snap"],
    )
    p_rep.add_argument(
        "--json",
        help="write the full reproduction (every table + figures) as JSON; "
        "only with --table all",
    )
    p_rep.set_defaults(func=_cmd_reproduce)

    p_sim = sub.add_parser(
        "simulate",
        help="run a workload trace on the simulator and analyze it",
        parents=[perf_flags],
    )
    p_sim.add_argument("--machine", required=True, choices=machine_names())
    p_sim.add_argument(
        "--workload",
        choices=["isx", "hpcg", "pennant", "comd", "minighost", "snap"],
        help="workload to generate a trace for (or use --trace)",
    )
    p_sim.add_argument(
        "--trace",
        metavar="FILE",
        help="simulate a trace file written by `repro trace export` "
        "instead of generating one",
    )
    p_sim.add_argument(
        "--steps", default="", help="comma-separated transforms, e.g. l2_prefetch"
    )
    p_sim.add_argument(
        "--cores",
        type=int,
        default=None,
        help="simulated cores (default: 2, or the trace's thread count "
        "with --trace)",
    )
    p_sim.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="batch-stepping fast path: retire provably interaction-free "
        "runs of accesses in vectorized steps and replay everything else "
        "through the event engine (--no-batch forces the pure event "
        "engine; docs/PERFORMANCE.md lists when results are bit-identical)",
    )
    p_sim.add_argument("--accesses", type=int, default=3000, help="per thread")
    p_sim.add_argument("--window", type=int, default=14, help="per-core window")
    p_sim.set_defaults(func=_cmd_simulate)

    p_trace = sub.add_parser(
        "trace", help="export/import on-disk (mmap-able) trace files"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_texp = trace_sub.add_parser(
        "export", help="generate a workload trace and write it to a file"
    )
    p_texp.add_argument("--machine", required=True, choices=machine_names())
    p_texp.add_argument(
        "--workload",
        required=True,
        choices=["isx", "hpcg", "pennant", "comd", "minighost", "snap"],
    )
    p_texp.add_argument(
        "--steps", default="", help="comma-separated transforms, e.g. l2_prefetch"
    )
    p_texp.add_argument("--threads", type=int, default=2, help="trace threads")
    p_texp.add_argument("--accesses", type=int, default=3000, help="per thread")
    p_texp.add_argument(
        "--seed", type=int, default=None, help="trace RNG seed (default: spec)"
    )
    p_texp.add_argument("--out", required=True, help="output trace file path")
    p_texp.add_argument(
        "--compress",
        action="store_true",
        help="smaller file; loads copy instead of memory-mapping",
    )
    p_texp.set_defaults(func=_cmd_trace_export)
    p_timp = trace_sub.add_parser(
        "import", help="read a trace file and print its summary"
    )
    p_timp.add_argument("file", help="trace file to read")
    p_timp.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the content-digest integrity check",
    )
    p_timp.set_defaults(func=_cmd_trace_import)

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint (domain rules: determinism, units, cache keys, "
        "slots, machine specs)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    p_lint.add_argument(
        "--select",
        help="comma-separated rule prefixes to run (e.g. DET,UNIT)",
    )
    p_lint.add_argument(
        "--ignore",
        help="comma-separated rule prefixes to skip (applied after --select)",
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any finding, promoting warnings to build failures",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_head = sub.add_parser(
        "headroom", help="recipe verdict map across utilizations/patterns"
    )
    p_head.add_argument("--machine", required=True, choices=machine_names())
    p_head.set_defaults(func=_cmd_headroom)

    sub.add_parser("figure2", help="extended-roofline experiment").set_defaults(
        func=_cmd_figure2
    )
    sub.add_parser(
        "recipe-score", help="Figure 1 recipe-accuracy summary"
    ).set_defaults(func=_cmd_recipe_score)

    p_adv = sub.add_parser(
        "advisor", help="run the Figure-1 recipe loop to convergence"
    )
    p_adv.add_argument("--machine", required=True, choices=machine_names())
    p_adv.add_argument(
        "--workload",
        required=True,
        choices=["isx", "hpcg", "pennant", "comd", "minighost", "snap"],
    )
    p_adv.add_argument(
        "--fast",
        action="store_true",
        help="tag eligible operating points as fast-path answers (the "
        "same solve over the machine's curve); ineligible states fall "
        "back with a stated reason",
    )
    p_adv.set_defaults(func=_cmd_advisor)

    p_cv = sub.add_parser(
        "crossval-analytic",
        help="analytic-vs-simulator error table for the --fast mode "
        "(exits 1 if an eligible cell breaks the documented bound)",
        parents=[perf_flags],
    )
    p_cv.add_argument(
        "--machine",
        action="append",
        choices=machine_names(),
        help="restrict to this machine (repeatable; default: the three "
        "paper machines)",
    )
    p_cv.add_argument("--json", help="also write the table as JSON here")
    p_cv.set_defaults(func=_cmd_crossval_analytic)

    p_cache = sub.add_parser(
        "cache", help="inspect the content-addressed result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="entry count, bytes, quarantined files, and lifetime "
        "hit/miss tallies of the sim cache",
    ).set_defaults(func=_cmd_cache_stats)
    p_gc = cache_sub.add_parser(
        "gc",
        help="evict entries oldest-first to fit a byte budget and/or "
        "age horizon (quarantined .corrupt files are left for forensics)",
    )
    p_gc.add_argument(
        "--max-bytes",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="byte budget, e.g. 500M or 2G (K/M/G/T suffixes, powers "
        "of 1024; plain numbers are bytes)",
    )
    p_gc.add_argument(
        "--max-age",
        type=_parse_age,
        default=None,
        metavar="AGE",
        help="drop entries older than this, e.g. 30d, 12h, 45m "
        "(s/m/h/d/w suffixes; plain numbers are seconds)",
    )
    p_gc.set_defaults(func=_cmd_cache_gc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
