"""The benchmark's four workloads: set-up, fixed op lists and checks.

Every workload is a closed loop with one caller: the runner issues the
next op only after the previous one returned.  A *pass* is one run of a
workload's fixed op list; ``perfbench/README.md`` says why each workload
exists and which layer it stresses.

Only two inputs depend on ``--seed``: the paper-workload traces
(``TraceSpec.seed``) and the cold-scatter kernel (``scatter_thread``).
The X-Mem and L1-resident kernels, the mini-apps (fixed inputs of their
own) and the analytic tables are seed-free by design.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import ComdApp, HpcgApp, IsxApp, MinighostApp, PennantApp, SnapApp
from repro.core.advisor import Advisor
from repro.core.analyzer import RoutineAnalyzer
from repro.core.classify import classify_from_prefetch_fraction
from repro.experiments.cross_validation import CrossValidationRow, _signature_ok
from repro.experiments.harness import reproduce_table
from repro.experiments.paperdata import CASE_STUDY_TABLES
from repro.machines.registry import get_machine, paper_machines
from repro.perf.cache import cached_run_trace, configure_cache
from repro.perfmodel.queueing import analytic_profile, calibrate_from_probes
from repro.sim import SimConfig, run_trace
from repro.sim.coltrace import ColumnarTrace
from repro.units import to_gb_per_s
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import TraceSpec
from repro.xmem.kernels import gap_sweep, resident_trace, scatter_thread
from repro.xmem.runner import XMemConfig, XMemRunner

from tracing import Probes, Recorder, SimRecord, Tracer

#: Accesses per thread of a paper-workload cell: the default of
#: ``experiments.cross_validation.cross_validate``.  The cross-validation
#: verdicts depend on trace length (at 1000, comd@skl flips), so the
#: tiny size keeps this too.
CELL_ACCESSES = 2200

#: Ops whose batch-on fingerprint is known to differ from the batch-off
#: simulation when the benchmark was added: on CoMD cells of knl and a64fx the
#: hit-run batch path leaves the L1/L2 MSHR occupancy integrals a few
#: parts in 1e4 off the event engine's (most seeds; never on skl).  A
#: mismatch on these ops is counted and printed, not failed, until the
#: simulator is fixed; a mismatch on any other op fails it.
KNOWN_BATCH_DIVERGENCE = frozenset({"cell/comd/knl", "cell/comd/a64fx"})

#: Stop reasons an advisor run may end with.
ADVISOR_STOPS = (
    "recipe says stop",
    "no realizable recommendation pays off",
    "iteration cap reached",
)


@dataclass(frozen=True)
class Size:
    """Problem sizes of one benchmark size (``full`` or ``tiny``)."""

    xmem_levels: int
    xmem_accesses: int
    #: name -> (app constructor kwargs, extract_trace kwargs)
    apps: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]]
    resident_accesses: int
    scatter_accesses: int
    probe_accesses: int
    bandwidth_points: int
    setup_repeats: int
    #: Fewest timed passes per workload; fixes the op count the tail
    #: percentile is taken over.
    min_passes: Dict[str, int]


SIZES = {
    "full": Size(
        xmem_levels=6,
        xmem_accesses=1000,
        apps={
            "isx": ({"keys_per_thread": 1000}, {}),
            "hpcg": ({"n": 8}, {"max_rows": 150}),
            "pennant": ({}, {"max_corners": 1750}),
            "comd": ({"particles": 400}, {}),
            "minighost": ({}, {"max_cells": 400}),
            "snap": ({}, {"max_cells": 120}),
        },
        resident_accesses=40_000,
        scatter_accesses=20_000,
        probe_accesses=1500,
        bandwidth_points=8,
        setup_repeats=3,
        min_passes={"sim_cold": 3, "sim_batch": 20, "analytic": 20, "replay_warm": 10},
    ),
    "tiny": Size(
        xmem_levels=2,
        xmem_accesses=200,
        apps={
            "isx": ({"keys_per_thread": 200}, {}),
            "hpcg": ({"n": 4}, {"max_rows": 30}),
            "pennant": ({"zones": 2000}, {"max_corners": 300}),
            "comd": ({"particles": 60}, {}),
            "minighost": ({"nx": 8, "ny": 4, "nz": 4}, {"max_cells": 40}),
            "snap": ({"nx": 6, "ny": 4, "nang": 8}, {"max_cells": 12}),
        },
        resident_accesses=2000,
        scatter_accesses=1000,
        probe_accesses=200,
        bandwidth_points=2,
        setup_repeats=2,
        min_passes={"sim_cold": 1, "sim_batch": 1, "analytic": 1, "replay_warm": 1},
    ),
}

_APP_CLASSES = {
    "isx": IsxApp,
    "hpcg": HpcgApp,
    "pennant": PennantApp,
    "comd": ComdApp,
    "minighost": MinighostApp,
    "snap": SnapApp,
}


@dataclass
class Result:
    """What one op returns: a deterministic summary plus its checks."""

    value: Any = None
    ok: bool = True
    #: Cross-validation verdict of a paper-workload cell.
    xval: Optional[bool] = None
    #: ``(rows within tolerance, rows)`` of a case-study table.
    rows: Optional[Tuple[int, int]] = None


@dataclass
class Op:
    op_id: str
    run: Callable[[], Result]


@dataclass
class Bench:
    """Run-wide state shared by the workloads."""

    seed: int
    size: Size
    tmp: Path
    tracer: Tracer
    recorder: Recorder = field(default_factory=Recorder)
    probes: Optional[Probes] = None
    _caches: List[Path] = field(default_factory=list)

    def fresh_cache(self) -> None:
        """Point the global sim cache at a new, empty private directory."""
        for old in self._caches:
            shutil.rmtree(old, ignore_errors=True)
        path = self.tmp / f"cache-{len(self._caches)}"
        self._caches = [path]
        configure_cache(cache_dir=path, enabled=True)

    def run_cached(self, trace: Any, config: SimConfig) -> Any:
        assert self.probes is not None
        return self.probes.cached_run(cached_run_trace, trace, config)


# -- the op kinds ------------------------------------------------------------------


def _xval_verdict(workload: Any, machine: Any, stats: Any) -> bool:
    """The ``experiments.cross_validation`` verdict for one simulated cell."""
    declared = workload.calibration(machine.name).binding_level
    classified = classify_from_prefetch_fraction(stats.memory.prefetch_fraction)
    l1, l2 = stats.avg_occupancy(1), stats.avg_occupancy(2)
    return CrossValidationRow(
        workload=workload.name,
        machine=machine.name,
        declared_binding=declared,
        measured_prefetch_fraction=stats.memory.prefetch_fraction,
        classified_binding=classified.binding_level,
        l1_occupancy=l1,
        l2_occupancy=l2,
        binding_agrees=classified.binding_level == declared,
        binding_immaterial=max(l1, l2) < 0.3 * machine.l1.mshrs,
        signature_ok=_signature_ok(workload, machine, stats),
    ).ok


def _report_value(report: Any) -> Tuple[Any, ...]:
    return (
        report.mlp.n_avg,
        report.classification.pattern.value,
        report.decision.stop,
        tuple(rec.info.name for rec in report.decision.recommendations),
    )


class CellOps:
    """The paper-workload cells: the cross-validation grid, simulated."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.machines = paper_machines()
        self.analyzers = {m.name: RoutineAnalyzer(m) for m in self.machines}

    def ops(self) -> List[Op]:
        return [
            Op(f"cell/{w.name}/{m.name}", self._cell(w, m))
            for w in ALL_WORKLOADS
            for m in self.machines
            if m.name in w.machines()
        ]

    def _analyze(self, machine_name: str, stats: Any) -> Any:
        with self.bench.tracer.span("core.RoutineAnalyzer.analyze_run"):
            return self.analyzers[machine_name].analyze_run(stats)

    def _cell(self, workload: Any, machine: Any) -> Callable[[], Result]:
        bench = self.bench
        spec = TraceSpec(threads=2, accesses_per_thread=CELL_ACCESSES, seed=bench.seed)
        config = SimConfig(machine=machine, sim_cores=2, window_per_core=14)

        def run() -> Result:
            with bench.tracer.span("workloads.Workload.generate_trace"):
                trace = workload.generate_trace(machine, spec=spec)
            stats = bench.run_cached(trace, config)
            report = self._analyze(machine.name, stats)
            verdict = _xval_verdict(workload, machine, stats)
            return Result(_report_value(report), ok=verdict, xval=verdict)

        return run


class SimOps(CellOps):
    """The simulated op list of ``sim_cold`` (and ``replay_warm``)."""

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        size = bench.size
        self.skl = get_machine("skl")
        xmem_cfg = XMemConfig(
            levels=size.xmem_levels, accesses_per_thread=size.xmem_accesses
        )
        self.runners = {m.name: XMemRunner(m, xmem_cfg) for m in self.machines}
        self.apps = {
            name: _APP_CLASSES[name](**ctor_kwargs)
            for name, (ctor_kwargs, _) in size.apps.items()
        }

    def ops(self) -> List[Op]:
        size = self.bench.size
        ops = []
        for m in self.machines:
            for gap in gap_sweep(size.xmem_levels):
                ops.append(Op(f"xmem/{m.name}/gap{gap:.0f}", self._xmem(m, gap)))
        ops += super().ops()
        for name in size.apps:
            ops.append(Op(f"app/{name}", self._app(name)))
        return ops

    def _xmem(self, machine: Any, gap: float) -> Callable[[], Result]:
        bench = self.bench
        runner = self.runners[machine.name]

        def run() -> Result:
            before = len(bench.recorder.sims)
            with bench.tracer.span("xmem.XMemRunner.measure_level"):
                level = runner.measure_level(gap)
            if len(bench.recorder.sims) != before + 1:
                raise RuntimeError("measure_level made no observable simulation")
            report = self._analyze(machine.name, bench.recorder.sims[-1].stats)
            ok = level.bandwidth_bytes > 0 and level.latency_ns > 0
            return Result((level.bandwidth_bytes, level.latency_ns, _report_value(report)), ok)

        return run

    def _app(self, name: str) -> Callable[[], Result]:
        bench = self.bench
        app = self.apps[name]
        extract_kwargs = bench.size.apps[name][1]
        config = SimConfig(machine=self.skl, sim_cores=2, window_per_core=14)

        def run() -> Result:
            with bench.tracer.span("apps.extract_trace"):
                trace = app.extract_trace(self.skl, **extract_kwargs)
            stats = bench.run_cached(trace, config)
            return Result(_report_value(self._analyze(self.skl.name, stats)))

        return run


# -- workloads -----------------------------------------------------------------------


class Workload:
    """Base: set-up, per-pass preparation, op list, untimed checks."""

    name = ""
    #: Check every simulated op against a run with the batch paths off.
    batch_reference = False
    #: Timed ops must be served from the sim cache.
    replay = False

    def __init__(self, bench: Bench) -> None:
        self.bench = bench

    def setup(self) -> None:
        """Everything before the first op; timed into ``setup_s``."""

    def prepare(self) -> Optional[List[Op]]:
        """Untimed work after set-up; returns ops of a baseline pass, if any."""
        return None

    def before_pass(self) -> None:
        """Untimed preparation before each timed pass."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def verification_ops(self) -> List[Op]:
        """Untimed ops run once after the timed passes."""
        return []


def table_ops(bench: Bench) -> List[Op]:
    def table(name: str) -> Callable[[], Result]:
        def run() -> Result:
            with bench.tracer.span("experiments.reproduce_table"):
                rep = reproduce_table(name)
            rows = (rep.rows_ok, len(rep.comparisons))
            value = tuple(
                (c.result.n_avg, c.result.bw_gbs, c.result.speedup)
                for c in rep.comparisons
            )
            return Result(value, ok=rep.all_ok, rows=rows)

        return run

    return [Op(f"table/{name}", table(name)) for name in CASE_STUDY_TABLES]


class SimCold(Workload):
    """X-Mem levels, paper-workload cells and mini-apps on an empty cache."""

    name = "sim_cold"
    batch_reference = True

    def setup(self) -> None:
        self.sim_ops = SimOps(self.bench)

    def before_pass(self) -> None:
        self.bench.fresh_cache()

    def ops(self) -> List[Op]:
        return self.sim_ops.ops()

    def verification_ops(self) -> List[Op]:
        return table_ops(self.bench)


class ReplayWarm(SimCold):
    """``sim_cold``'s op list replayed against the cache a fill pass left."""

    name = "replay_warm"
    batch_reference = False
    replay = True

    def prepare(self) -> List[Op]:
        self.bench.fresh_cache()
        return self.ops()

    def before_pass(self) -> None:
        """Keep the filled cache: no fresh cache per pass."""


class SimBatch(Workload):
    """The two kernels the batch fast paths were built for."""

    name = "sim_batch"
    batch_reference = True

    def setup(self) -> None:
        self.skl = get_machine("skl")
        self.knl = get_machine("knl")
        self.analyzers = {m.name: RoutineAnalyzer(m) for m in (self.skl, self.knl)}

    def before_pass(self) -> None:
        self.bench.fresh_cache()

    def _sim(self, machine: Any, build: Callable[[], Any], config: SimConfig) -> Result:
        bench = self.bench
        with bench.tracer.span("xmem.kernels"):
            trace = build()
        stats = bench.run_cached(trace, config)
        with bench.tracer.span("core.RoutineAnalyzer.analyze_run"):
            report = self.analyzers[machine.name].analyze_run(stats)
        return Result(_report_value(report))

    def ops(self) -> List[Op]:
        size, skl, knl = self.bench.size, self.skl, self.knl
        seed = self.bench.seed

        def resident() -> Result:
            return self._sim(
                skl,
                lambda: resident_trace(
                    threads=4,
                    accesses_per_thread=size.resident_accesses,
                    line_bytes=skl.line_bytes,
                ),
                SimConfig(machine=skl, sim_cores=4),
            )

        def scatter(prefetch: bool) -> Callable[[], Result]:
            def run() -> Result:
                return self._sim(
                    knl,
                    lambda: ColumnarTrace(
                        threads=(
                            scatter_thread(
                                0, size.scatter_accesses, knl.line_bytes, seed=seed
                            ),
                        ),
                        routine="cold_scatter",
                        line_bytes=knl.line_bytes,
                    ),
                    SimConfig(
                        machine=knl,
                        sim_cores=1,
                        window_per_core=12,
                        tlb_entries=0,
                        hw_prefetch=prefetch,
                    ),
                )

            return run

        return [
            Op("resident/skl", resident),
            Op("scatter/knl/prefetch", scatter(True)),
            Op("scatter/knl/no-prefetch", scatter(False)),
        ]

    def verification_ops(self) -> List[Op]:
        self.bench.fresh_cache()
        return table_ops(self.bench) + CellOps(self.bench).ops()


class Analytic(Workload):
    """Closed-loop analytic queries; zero simulations in the timed ops."""

    name = "analytic"

    def setup(self) -> None:
        bench = self.bench
        bench.fresh_cache()  # calibration runs on an empty store
        self.machines = paper_machines()
        self.analyzers = {}
        for m in self.machines:
            with bench.tracer.span("perfmodel.calibrate_from_probes"):
                params = calibrate_from_probes(
                    m, accesses_per_thread=bench.size.probe_accesses
                )
            self.analyzers[m.name] = RoutineAnalyzer(m, analytic_profile(m, params))

    def ops(self) -> List[Op]:
        bench = self.bench
        ops = table_ops(bench)

        def advisor(w: Any, m: Any, fast: bool) -> Callable[[], Result]:
            def run() -> Result:
                loop = Advisor(w, m, fast=fast)
                with bench.tracer.span("core.Advisor.run"):
                    res = loop.run()
                ok = (
                    res.stop_reason in ADVISOR_STOPS
                    and len(res.steps) <= loop.max_iterations
                )
                value = (
                    tuple(s.step for s in res.steps),
                    res.cumulative_speedup,
                    res.stop_reason,
                )
                return Result(value, ok=ok)

            return run

        for w in ALL_WORKLOADS:
            for m in self.machines:
                if m.name in w.machines():
                    for fast in (False, True):
                        mode = "fast" if fast else "solver"
                        ops.append(
                            Op(f"advisor/{w.name}/{m.name}/{mode}", advisor(w, m, fast))
                        )

        def analyze(m: Any, gbs: float, prefetch_fraction: float) -> Callable[[], Result]:
            analyzer = self.analyzers[m.name]

            def run() -> Result:
                with bench.tracer.span("core.RoutineAnalyzer.analyze_bandwidth_gbs"):
                    report = analyzer.analyze_bandwidth_gbs(
                        gbs, prefetch_fraction=prefetch_fraction
                    )
                ok = math.isfinite(report.mlp.n_avg) and report.mlp.n_avg > 0
                return Result(_report_value(report), ok=ok)

            return run

        n = bench.size.bandwidth_points
        for m in self.machines:
            top = to_gb_per_s(m.memory.achievable_bw_bytes)
            for i in range(n):
                gbs = top * (0.1 + 0.85 * i / max(1, n - 1))
                for pf in (0.05, 0.95):
                    ops.append(Op(f"analyze/{m.name}/{i}/pf{pf}", analyze(m, gbs, pf)))
        return ops

    def verification_ops(self) -> List[Op]:
        self.bench.fresh_cache()
        return CellOps(self.bench).ops()


WORKLOADS = {cls.name: cls for cls in (SimCold, SimBatch, Analytic, ReplayWarm)}


def batch_off_fingerprint(record: SimRecord) -> str:
    """Fingerprint of the same inputs simulated with both batch paths off."""
    config = replace(record.config, batch=False, batch_miss=False)
    return run_trace(record.trace, config).fingerprint()
