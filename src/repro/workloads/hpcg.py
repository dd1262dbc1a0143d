"""HPCG — sparse matrix-vector multiplication (Section IV-B, Table V).

``ComputeSPMV_ref`` streams the matrix values / column indices and the
output vector while gathering the input vector ``x`` with the high
locality of a 27-point 40³ mesh.  Streaming dominates and the hardware
prefetcher is very effective (the paper measures >3x slowdown with the
prefetcher disabled), so the **L2 MSHR file binds**.

Calibration notes:

* base ``demand_mlp``: 12.6 SKL (already at the SKL streams-bandwidth
  ceiling), 8.95 KNL, 3.44 A64FX (SVE-less scalar code on a very wide
  memory system — lots of headroom, which is why vectorization buys
  1.7x);
* vectorization (AVX-512/SVE gather hardware): x1.16 on KNL, x1.63 on
  A64FX (paper occupancies 8.95→10.38 and 3.44→5.62), no change on SKL
  where bandwidth is the wall;
* 2-way SMT on KNL: x1.455 (10.38→15.1); 4-way stalls because the L2
  prefetcher tracks only 16 streams and 4 threads × 8–10 streams
  overflow it (paper: 1.03x) — modeled as a small demand gain plus
  contention traffic.
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


class HpcgWorkload(Workload):
    """HPCG ``ComputeSPMV_ref`` model."""

    def __init__(self) -> None:
        super().__init__(
            name="hpcg",
            routine="ComputeSPMV_ref",
            description="Sparse matrix-vector multiplication",
            problem_size="40^3",
            pattern=AccessPattern.STREAMING,
            random_fraction=0.10,
            calibrations={
                "skl": MachineCalibration(
                    demand_mlp=12.6,
                    binding_level=2,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                    ),
                ),
                "knl": MachineCalibration(
                    demand_mlp=8.95,
                    binding_level=2,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                        (("vectorize", "smt2"), "smt4"),
                    ),
                ),
                "a64fx": MachineCalibration(
                    demand_mlp=3.44,
                    binding_level=2,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), None),
                    ),
                ),
            },
            effects={
                "vectorize@skl": TransformEffect(
                    demand_factor=1.05,
                    traffic_factor=1.02,
                    rationale="SKL already at achievable streams bandwidth; "
                    "wider vectors cannot add sustained MLP",
                ),
                "vectorize@knl": TransformEffect(
                    demand_factor=1.16,
                    rationale="AVX-512 gathers widen the SpMV inner loop "
                    "(paper: 8.95 -> 10.38)",
                ),
                "vectorize@a64fx": TransformEffect(
                    demand_factor=1.634,
                    traffic_factor=0.906,
                    rationale="SVE gathers on a scalar baseline: biggest "
                    "jump (3.44 -> 5.62); prefetch efficiency also improves",
                ),
                "smt2@skl": TransformEffect(
                    demand_factor=1.10,
                    traffic_factor=1.02,
                    smt_ways=2,
                    rationale="bandwidth-bound: extra thread only adds "
                    "cache contention (paper: 0.98x)",
                ),
                "smt2@knl": TransformEffect(
                    demand_factor=1.455,
                    smt_ways=2,
                    rationale="two threads' streams fit the 16-stream "
                    "prefetch tracker (paper: 10.38 -> 15.1, 1.26x)",
                ),
                "smt4@knl": TransformEffect(
                    demand_factor=1.10,
                    traffic_factor=1.05,
                    smt_ways=4,
                    rationale="4 threads x 8-10 streams overflow the "
                    "16-stream L2 prefetch tracker; little MLP gain "
                    "(paper: 1.03x)",
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
        """Matrix/result streams (85%) + local gathers of x (15%)."""
        from ..sim.coltrace import (
            ColumnarThreadTrace,
            ColumnarTrace,
            interleave_columns,
        )
        from .generators import gather_accesses, spawn_thread_generator, unit_streams

        spec = spec or TraceSpec()
        rng = random.Random(spec.seed)
        line = machine.line_bytes
        gap = 1.5 if "vectorize" in steps else 3.0
        threads = []
        for t in range(spec.threads):
            trng = spawn_thread_generator(rng)
            n_stream = int(spec.accesses_per_thread * 0.85)
            streams = unit_streams(
                n_stream,
                line,
                streams=6,
                region_id=8 * t,
                # Keep the *line-level* stream length representative of
                # the real (long) matrix arrays even in a small trace:
                # on 256B-line machines one access record covers more of
                # the line, as the wide SVE loads do.
                element_bytes=max(8, line // 8),
                gap_cycles=gap,
                store_stream=True,
            )
            gathers = gather_accesses(
                spec.accesses_per_thread - n_stream,
                line,
                trng,
                region_id=8 * t + 7,
                region_bytes=2 * 1024 * 1024,
                locality=0.85,
                gap_cycles=gap,
            )
            merged = interleave_columns(streams, gathers, period=6)
            threads.append(ColumnarThreadTrace.from_columns(t, merged))
        return ColumnarTrace(
            tuple(threads), routine=self.routine, line_bytes=line
        )


HPCG = HpcgWorkload()
