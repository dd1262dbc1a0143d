"""CoMD — classical molecular dynamics (Section IV-D, Table VII).

``eamForce`` is compute dominated: neighbor-list data largely fits in
cache, memory requests are rare, and occupancies are tiny (0.17 SKL /
1.17 KNL / 0.12 A64FX).  The recipe reads the huge MSHR headroom as
"every MLP-increasing optimization applies", and indeed vectorization
(of the next-to-innermost loop, with gather/scatter + predication) and
stacked SMT all pay off on KNL up to 4 ways — the paper's demonstration
that MSHRQ occupancy correctly certifies compute-boundedness
(Section IV-G).

CoMD is the cleanest calibration in the paper: every row satisfies
``speedup ≈ bandwidth ratio`` (constant work, constant traffic), except
SMT rows where the cache-contention traffic inflation is explicit in
the paper's own numbers (SKL 2-way: 1.71x bandwidth for 1.22x speedup).
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


class ComdWorkload(Workload):
    """CoMD ``eamForce`` model."""

    def __init__(self) -> None:
        super().__init__(
            name="comd",
            routine="eamForce",
            description="Classical molecular dynamics",
            problem_size="x=y=z=24, T=4000",
            pattern=AccessPattern.MIXED,
            random_fraction=0.45,
            calibrations={
                "skl": MachineCalibration(
                    demand_mlp=0.17,
                    binding_level=2,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                        (("vectorize", "smt2"), None),
                    ),
                ),
                "knl": MachineCalibration(
                    demand_mlp=1.17,
                    binding_level=2,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                        (("vectorize", "smt2"), "smt4"),
                        (("vectorize", "smt2", "smt4"), None),
                    ),
                ),
                "a64fx": MachineCalibration(
                    demand_mlp=0.12,
                    binding_level=2,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), None),
                    ),
                ),
            },
            effects={
                "vectorize@skl": TransformEffect(
                    demand_factor=1.43,
                    traffic_factor=1.021,
                    rationale="next-to-innermost loop vectorized with "
                    "gather/predication; sized from the paper's own "
                    "bandwidth growth 3.19 -> 4.56 GB/s (1.4x speedup)",
                ),
                "vectorize@knl": TransformEffect(
                    demand_factor=1.325,
                    traffic_factor=0.975,
                    rationale="few memory accesses: vectorization adds "
                    "only a small absolute MLP (1.17 -> 1.55, paper 1.35x)",
                ),
                "vectorize@a64fx": TransformEffect(
                    demand_factor=1.26,
                    traffic_factor=1.008,
                    rationale="sized from the paper's bandwidth growth "
                    "10.75 -> 13.44 GB/s (1.24x speedup); compute-side win",
                ),
                "smt2@skl": TransformEffect(
                    demand_factor=1.71,
                    traffic_factor=1.402,
                    smt_ways=2,
                    rationale="second thread adds MLP but also cache "
                    "contention traffic (paper: 1.71x BW for 1.22x speedup)",
                ),
                "smt2@knl": TransformEffect(
                    demand_factor=2.426,
                    traffic_factor=1.540,
                    smt_ways=2,
                    rationale="1.55 -> 3.76; far from the MSHR limit, so "
                    "SMT keeps paying (paper 1.52x)",
                ),
                "smt4@knl": TransformEffect(
                    demand_factor=1.739,
                    traffic_factor=1.362,
                    smt_ways=4,
                    rationale="3.76 -> 6.54, still below the 32-entry L2 "
                    "file (paper 1.25x)",
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
        """Cache-resident force loop with rare cold misses, big gaps."""
        from ..sim.coltrace import ColumnarThreadTrace, ColumnarTrace
        from .generators import cached_compute, spawn_thread_generator

        spec = spec or TraceSpec()
        rng = random.Random(spec.seed)
        line = machine.line_bytes
        vectorized = "vectorize" in steps
        gap = 12.0 if vectorized else 25.0  # vectorization shrinks compute
        threads = []
        for t in range(spec.threads):
            trng = spawn_thread_generator(rng)
            accesses = cached_compute(
                spec.accesses_per_thread,
                line,
                trng,
                region_id=4 * t,
                footprint_bytes=20 * 1024,
                miss_fraction=0.03,
                gap_cycles=gap,
            )
            threads.append(ColumnarThreadTrace.from_columns(t, accesses))
        return ColumnarTrace(
            tuple(threads), routine=self.routine, line_bytes=line
        )


COMD = ComdWorkload()
