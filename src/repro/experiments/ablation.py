"""Ablation studies on the method's design choices (DESIGN.md §5).

Three sensitivity analyses, exposed as library functions so both the
benchmarks and downstream users can run them:

* :func:`threshold_sweep` — the recipe's FULL / NEAR-FULL / saturation
  thresholds: the chosen operating point must sit on a plateau;
* :func:`latency_curve_perturbation` — scale every machine's loaded-
  latency calibration by a factor (miscalibrated X-Mem) and re-score
  the recipe across all table rows: the portability claim requires the
  verdicts to be insensitive to ~10 % curve error;
* :func:`prefetch_distance_sweep` — software-pipelining distance on
  the ISx L2-prefetch unlock: timeliness (a full memory latency of
  lead) is what moves the bottleneck.
"""

from __future__ import annotations

import importlib
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import recipe as recipe_module
from ..machines.registry import get_machine
from ..perf.cache import cached_run_trace
from ..perf.parallel import fan_out
from ..sim.coltrace import ColumnarThreadTrace, ColumnarTrace
from ..sim.hierarchy import SimConfig
from ..units import to_gb_per_s
from ..workloads.generators import random_updates, spawn_thread_generator
from .figure1 import Figure1Reproduction, reproduce_figure1

ThresholdSetting = Tuple[float, float, float]

#: The shipped recipe thresholds (full, near-full, bandwidth-saturated).
DEFAULT_THRESHOLDS: ThresholdSetting = (0.95, 0.82, 0.93)


@contextmanager
def _recipe_thresholds(setting: ThresholdSetting) -> Iterator[None]:
    full, near, saturated = setting
    original = (
        recipe_module.FULL_RATIO,
        recipe_module.NEAR_FULL_RATIO,
        recipe_module.BW_SATURATED_RATIO,
    )
    recipe_module.FULL_RATIO = full
    recipe_module.NEAR_FULL_RATIO = near
    recipe_module.BW_SATURATED_RATIO = saturated
    try:
        yield
    finally:
        (
            recipe_module.FULL_RATIO,
            recipe_module.NEAR_FULL_RATIO,
            recipe_module.BW_SATURATED_RATIO,
        ) = original


def threshold_sweep(
    settings: Sequence[ThresholdSetting] = (
        DEFAULT_THRESHOLDS,
        (0.93, 0.80, 0.91),
        (0.97, 0.84, 0.95),
        (0.95, 0.78, 0.93),
        (0.95, 0.86, 0.93),
    ),
) -> Dict[ThresholdSetting, Figure1Reproduction]:
    """Figure-1 recipe score at each threshold setting (defaults bracket
    ours)."""
    return {tuple(s): _scored(tuple(s)) for s in settings}


def _scored(setting: ThresholdSetting) -> Figure1Reproduction:
    with _recipe_thresholds(setting):
        return reproduce_figure1()


_CALIBRATION_MODULES = {
    "repro.machines.skl": "SKL_LATENCY_CALIBRATION",
    "repro.machines.knl": "KNL_LATENCY_CALIBRATION",
    "repro.machines.a64fx": "A64FX_LATENCY_CALIBRATION",
}


@contextmanager
def scaled_latency_curves(scale: float) -> Iterator[None]:
    """Scale every paper machine's latency calibration by ``scale``.

    The machine factories read the module-level calibration constants
    at build time, so every machine constructed inside the context sees
    the perturbed curve.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    originals = {}
    for module_name, attr in _CALIBRATION_MODULES.items():
        module = importlib.import_module(module_name)
        originals[(module, attr)] = getattr(module, attr)
        setattr(
            module,
            attr,
            tuple((u, lat * scale) for u, lat in originals[(module, attr)]),
        )
    try:
        yield
    finally:
        for (module, attr), value in originals.items():
            setattr(module, attr, value)


@dataclass(frozen=True)
class PerturbationResult:
    """Recipe verdict stability under a latency-curve scaling."""

    scale: float
    stable_rows: int
    total_rows: int

    @property
    def stability(self) -> float:
        """Fraction of rows whose recipe verdict survived the perturbation."""
        return self.stable_rows / self.total_rows if self.total_rows else 1.0


def latency_curve_perturbation(scale: float) -> PerturbationResult:
    """Re-score Figure 1 with curves scaled by ``scale``; count rows
    whose recipe verdict is still fine (agreeing or a known exception)."""
    with scaled_latency_curves(scale):
        fig1 = reproduce_figure1()
    return PerturbationResult(
        scale=scale,
        stable_rows=fig1.agreeing + fig1.known_exceptions,
        total_rows=fig1.total,
    )


@dataclass(frozen=True)
class PrefetchDistancePoint:
    """One ISx run at a software-pipelining distance."""

    distance: int
    l1_full_fraction: float
    l2_occupancy: float
    bandwidth_gbs: float
    elapsed_ns: float


def _distance_point(args: Tuple[int, str, int, int]) -> PrefetchDistancePoint:
    """One sweep point, self-contained and picklable for fan-out workers."""
    distance, machine_name, accesses_per_thread, seed = args
    machine = get_machine(machine_name)
    rng = random.Random(seed)
    threads = []
    for t in range(2):
        accesses = random_updates(
            accesses_per_thread,
            machine.line_bytes,
            spawn_thread_generator(rng),
            region_id=4 * t,
            gap_cycles=12.0,
            prefetch_to_l2=distance > 0,
            prefetch_distance=max(distance, 1),
        )
        threads.append(ColumnarThreadTrace.from_columns(t, accesses))
    trace = ColumnarTrace(
        tuple(threads),
        routine=f"isx_d{distance}",
        line_bytes=machine.line_bytes,
    )
    stats = cached_run_trace(
        trace, SimConfig(machine=machine, sim_cores=2, window_per_core=14)
    )
    return PrefetchDistancePoint(
        distance=distance,
        l1_full_fraction=stats.mshr_full_fraction(1),
        l2_occupancy=stats.avg_occupancy(2),
        bandwidth_gbs=to_gb_per_s(stats.bandwidth_bytes_per_s()),
        elapsed_ns=stats.elapsed_ns,
    )


def prefetch_distance_sweep(
    distances: Sequence[int] = (0, 4, 16, 64),
    *,
    machine_name: str = "knl",
    accesses_per_thread: int = 3000,
    seed: int = 11,
    jobs: Optional[int] = None,
) -> List[PrefetchDistancePoint]:
    """ISx-on-simulator sweep over the prefetch lead distance.

    Each distance is an independent (seeded) simulation; with
    ``jobs > 1`` the grid points run in worker processes and the result
    order still follows ``distances`` exactly.  Every simulation is
    stored in the sim cache, so rerunning an interrupted sweep only
    simulates the distances it had not finished.
    """
    return fan_out(
        _distance_point,
        [(d, machine_name, accesses_per_thread, seed) for d in distances],
        jobs=jobs,
    )
