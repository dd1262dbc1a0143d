"""PENNANT — unstructured mesh physics (Section IV-C, Table VI).

``setCornerDiv`` is one long loop of irregular, pointer-based gathers
over mesh arrays with conditional code.  The compiler cannot prove
no-aliasing, so the base version is **not vectorized** and the scalar
gather chain expresses very little MLP (n≈2.3 SKL / 3.5 KNL / 0.8
A64FX).  Forcing vectorization (ivdep/restrict) turns the loop into
AVX-512/SVE gather-scatter with predication — a large MLP jump — and
2-way SMT stacks on top until the **L1 MSHR file** (irregular accesses)
pins it at ~12 on KNL, where 4-way SMT then buys nothing despite only
58 % bandwidth utilization: the paper's flagship "core-bound before
bandwidth-bound" example.

Effective-traffic calibration: the paper's PENNANT speedups exceed its
bandwidth growth by large factors (KNL: 5.76x speedup on 1.67x
bandwidth), i.e. the measured traffic per unit of work drops sharply
once vectorized (scalar replay and speculative over-fetch disappear).
The transform traffic factors encode that measured product; see
EXPERIMENTS.md ("known paper-internal tensions").
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


class PennantWorkload(Workload):
    """PENNANT ``setCornerDiv`` model."""

    def __init__(self) -> None:
        super().__init__(
            name="pennant",
            routine="setCornerDiv",
            description="Unstructured mesh physics miniapp",
            problem_size="meshparams = 960, 1080, 1.0, 1.125",
            pattern=AccessPattern.RANDOM,
            random_fraction=0.70,
            calibrations={
                "skl": MachineCalibration(
                    demand_mlp=2.29,
                    binding_level=1,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                        (("vectorize", "smt2"), None),
                    ),
                ),
                "knl": MachineCalibration(
                    demand_mlp=3.49,
                    binding_level=1,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                        (("vectorize", "smt2"), "smt4"),
                    ),
                ),
                "a64fx": MachineCalibration(
                    demand_mlp=0.81,
                    binding_level=1,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), None),
                    ),
                ),
            },
            effects={
                "vectorize@skl": TransformEffect(
                    demand_factor=1.262,
                    traffic_factor=0.617,
                    rationale="forced AVX-512 gather/predication: occupancy "
                    "2.29 -> 2.89; scalar-replay traffic disappears",
                ),
                "vectorize@knl": TransformEffect(
                    demand_factor=1.708,
                    traffic_factor=0.290,
                    rationale="in-order-ish KNL gains most from gather "
                    "vectorization (3.49 -> 5.96; paper 5.76x)",
                ),
                "vectorize@a64fx": TransformEffect(
                    demand_factor=1.494,
                    traffic_factor=0.384,
                    rationale="SVE gathers + predication on a weak OoO core "
                    "(0.81 -> 1.21; paper 3.83x)",
                ),
                "smt2@skl": TransformEffect(
                    demand_factor=1.29,
                    traffic_factor=0.893,
                    smt_ways=2,
                    rationale="second thread's gathers fill spare L1 MSHRs "
                    "(2.89 -> 3.73, 1.4x)",
                ),
                "smt2@knl": TransformEffect(
                    demand_factor=1.903,
                    traffic_factor=1.529,
                    smt_ways=2,
                    rationale="occupancy doubles toward the 12-entry L1 file "
                    "(5.96 -> 11.34) but threads contend in cache",
                ),
                "smt4@knl": TransformEffect(
                    demand_factor=1.30,
                    traffic_factor=1.09,
                    smt_ways=4,
                    rationale="demand clips at the full L1 MSHR file "
                    "(11.34/12): no speedup at only 58% bandwidth - the "
                    "paper's core-bound showcase",
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
        """Low-locality gathers (70%) + a few mesh streams (30%)."""
        from ..sim.coltrace import (
            ColumnarThreadTrace,
            ColumnarTrace,
            interleave_columns,
        )
        from .generators import gather_accesses, spawn_thread_generator, unit_streams

        spec = spec or TraceSpec()
        rng = random.Random(spec.seed)
        line = machine.line_bytes
        vectorized = "vectorize" in steps
        gap = 2.0 if vectorized else 8.0  # scalar gather chain is slow
        threads = []
        for t in range(spec.threads):
            trng = spawn_thread_generator(rng)
            n_gather = int(spec.accesses_per_thread * 0.7)
            gathers = gather_accesses(
                n_gather,
                line,
                trng,
                region_id=8 * t,
                region_bytes=96 * 1024 * 1024,
                locality=0.2,
                gap_cycles=gap,
            )
            streams = unit_streams(
                spec.accesses_per_thread - n_gather,
                line,
                streams=3,
                region_id=8 * t + 5,
                element_bytes=8,
                gap_cycles=gap,
            )
            merged = interleave_columns(gathers, streams, period=7)
            threads.append(ColumnarThreadTrace.from_columns(t, merged))
        return ColumnarTrace(
            tuple(threads), routine=self.routine, line_bytes=line
        )


PENNANT = PennantWorkload()
