"""SNAP — discrete-ordinates transport proxy (Section IV-F, Table IX).

``dim3_sweep`` is a deep loop nest of *short* auto-vectorized inner
loops (nang=48) with heavy interleaved compute and temporary reuse —
not memory bound (45 % SKL / 31 % KNL / 9 % A64FX bandwidth).  The
short trips defeat hardware-prefetch timeliness, so directive-driven
**software prefetching** is the paper's move; it pays modestly
(1.01x SKL with its aggressive prefetcher, 1.08x KNL, 1.07x A64FX).
SMT stacks further gains on KNL (1.14x then 1.02x) against growing
cache-miss contention — the traffic inflation is visible in the
paper's own bandwidth-vs-speedup products.

SNAP is also the paper's TMA critique vehicle (Section I): whole-
program TMA called it 27 % bandwidth-bound / 23 % latency-bound with a
9-cycle average latency, yet per-routine prefetching of ``dim3_sweep``
bought 8 %.  The intro experiment (:mod:`repro.experiments.intro_snap`)
reproduces that contrast.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.classify import AccessPattern
from ..machines.spec import MachineSpec
from ..optim.transforms import TransformEffect
from .base import MachineCalibration, TraceSpec, Workload

if TYPE_CHECKING:
    from ..sim.coltrace import ColumnarTrace


class SnapWorkload(Workload):
    """SNAP ``dim3_sweep`` model."""

    def __init__(self) -> None:
        super().__init__(
            name="snap",
            routine="dim3_sweep",
            description="Discrete ordinates neutral particle transport",
            problem_size="nx=64, ny=16, nz=24, nang=48, ng=54, cor_swp=1",
            pattern=AccessPattern.MIXED,
            random_fraction=0.35,
            calibrations={
                "skl": MachineCalibration(
                    demand_mlp=3.79,
                    binding_level=2,
                    row_plan=(
                        ((), "sw_prefetch"),
                        (("sw_prefetch",), "smt2"),
                    ),
                ),
                "knl": MachineCalibration(
                    demand_mlp=5.0,
                    binding_level=2,
                    row_plan=(
                        ((), "sw_prefetch"),
                        (("sw_prefetch",), "smt2"),
                        (("sw_prefetch", "smt2"), "smt4"),
                    ),
                ),
                "a64fx": MachineCalibration(
                    demand_mlp=1.1,
                    binding_level=2,
                    row_plan=(
                        ((), "sw_prefetch"),
                        (("sw_prefetch",), None),
                    ),
                ),
            },
            effects={
                "sw_prefetch@skl": TransformEffect(
                    demand_factor=1.021,
                    traffic_factor=1.004,
                    rationale="SKL's aggressive hardware prefetcher leaves "
                    "almost nothing for directives (paper 1.01x)",
                ),
                "sw_prefetch@knl": TransformEffect(
                    demand_factor=1.040,
                    traffic_factor=0.952,
                    rationale="short inner loops prefetched ahead of the "
                    "sweep (5.0 -> 5.2; paper 1.08x)",
                ),
                "sw_prefetch@a64fx": TransformEffect(
                    demand_factor=1.091,
                    traffic_factor=0.969,
                    rationale="same directive benefit as KNL (1.1 -> 1.2; "
                    "paper 1.07x)",
                ),
                "smt2@skl": TransformEffect(
                    demand_factor=1.12,
                    traffic_factor=1.06,
                    smt_ways=2,
                    rationale="hyperthreading raises cache miss rates; only "
                    "1.03x survives",
                ),
                "smt2@knl": TransformEffect(
                    demand_factor=1.342,
                    traffic_factor=1.155,
                    smt_ways=2,
                    rationale="5.2 -> 6.98 despite extra misses (paper 1.14x)",
                ),
                "smt4@knl": TransformEffect(
                    demand_factor=1.15,
                    traffic_factor=1.12,
                    smt_ways=4,
                    rationale="gain mostly eaten by cache contention "
                    "(paper 1.02x)",
                ),
            },
        )

    def generate_trace(
        self,
        machine: MachineSpec,
        *,
        steps: Sequence[str] = (),
        spec: Optional[TraceSpec] = None,
    ) -> ColumnarTrace:
        """Short bursts (nang-sized inner loops) with compute gaps."""
        from ..sim.coltrace import ColumnarThreadTrace, ColumnarTrace
        from .generators import short_bursts, spawn_thread_generator

        spec = spec or TraceSpec()
        rng = random.Random(spec.seed)
        line = machine.line_bytes
        prefetched = "sw_prefetch" in steps
        threads = []
        for t in range(spec.threads):
            trng = spawn_thread_generator(rng)
            accesses = short_bursts(
                spec.accesses_per_thread,
                line,
                trng,
                region_id=4 * t,
                burst_elements=48,
                element_bytes=8,
                gap_cycles=5.0,
                sw_prefetch=prefetched,
            )
            threads.append(ColumnarThreadTrace.from_columns(t, accesses))
        return ColumnarTrace(
            tuple(threads), routine=self.routine, line_bytes=line
        )


SNAP = SnapWorkload()
