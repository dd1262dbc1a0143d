"""MiniGhost — 27-point difference stencil (Section IV-E, Table VIII).

The 3D loop nest auto-vectorizes and exposes many unit-stride streams,
so the hardware prefetcher covers it and the **L2 MSHR file binds**.
The base versions already run high bandwidth (73 % SKL / 58 % KNL /
56 % A64FX), so the recipe's lever is **loop tiling**: it cuts total
memory accesses via cache reuse.  The paper's per-machine outcomes
differ instructively:

* SKL: tiling raises the access *rate* faster than it cuts volume —
  bandwidth climbs to 84 % and occupancy to 10.32; with bandwidth then
  saturated, 2-way SMT returns only 1.02x;
* KNL: tiling cuts effective traffic ~24 % (1.47x) but SMT adds cache
  contention between hyperthreads (the paper observes the extra
  misses), so 2- and 4-way SMT return 1.0x despite MSHR headroom —
  the recipe's documented cache-residency-contention caveat;
* A64FX: tiling cuts traffic ~36 % (1.51x) and *lowers* occupancy
  (8.38 → 7.85), the paper's example of tiling reducing MSHRQ pressure
  while improving performance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..core.classify import AccessPattern
from ..machines.spec import MachineSpec
from ..optim.transforms import TransformEffect
from .base import MachineCalibration, TraceSpec, Workload

if TYPE_CHECKING:
    from ..sim.coltrace import ColumnarTrace


class MinighostWorkload(Workload):
    """MiniGhost ``mg_stencil_3d27pt`` model."""

    def __init__(self) -> None:
        super().__init__(
            name="minighost",
            routine="mg_stencil_3d27pt",
            description="Difference stencil miniapp (27-point)",
            problem_size="nx=504, ny=126, nz=768, num_vars=40",
            pattern=AccessPattern.STREAMING,
            random_fraction=0.02,
            calibrations={
                "skl": MachineCalibration(
                    demand_mlp=7.07,
                    binding_level=2,
                    row_plan=(
                        ((), "loop_tiling"),
                        (("loop_tiling",), "smt2"),
                    ),
                ),
                "knl": MachineCalibration(
                    demand_mlp=11.26,
                    binding_level=2,
                    row_plan=(
                        ((), "loop_tiling"),
                        (("loop_tiling",), "smt2"),
                        (("loop_tiling", "smt2"), "smt4"),
                    ),
                ),
                "a64fx": MachineCalibration(
                    demand_mlp=8.38,
                    binding_level=2,
                    row_plan=(
                        ((), "loop_tiling"),
                        (("loop_tiling",), None),
                    ),
                ),
            },
            effects={
                "loop_tiling@skl": TransformEffect(
                    demand_factor=1.460,
                    traffic_factor=1.011,
                    rationale="tiling raises the request rate more than it "
                    "cuts SKL's volume (7.07 -> 10.32; paper 1.14x)",
                ),
                "loop_tiling@knl": TransformEffect(
                    demand_factor=1.136,
                    traffic_factor=0.762,
                    rationale="reuse removes ~24% of effective traffic "
                    "(11.26 -> 12.79; paper 1.47x - higher latency avoided)",
                ),
                "loop_tiling@a64fx": TransformEffect(
                    demand_factor=0.937,
                    traffic_factor=0.638,
                    rationale="tiling lowers occupancy while improving "
                    "performance (8.38 -> 7.85; paper 1.51x)",
                ),
                "smt2@skl": TransformEffect(
                    demand_factor=1.10,
                    traffic_factor=1.005,
                    smt_ways=2,
                    rationale="bandwidth already ~96% of achievable: SMT "
                    "returns a mere 1.02x",
                ),
                "smt2@knl": TransformEffect(
                    demand_factor=1.074,
                    traffic_factor=1.053,
                    smt_ways=2,
                    rationale="hyperthreads contend for L2/LLC residency; "
                    "extra misses cancel the MLP gain (paper 1.0x)",
                ),
                "smt4@knl": TransformEffect(
                    demand_factor=1.05,
                    traffic_factor=1.05,
                    smt_ways=4,
                    rationale="more cache thrashing, no net gain (paper 1.0x)",
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
        """Many unit-stride plane streams + a store stream.

        Tiling is modeled by revisiting a block: the same stream
        region is traversed in shorter segments that refit the L2.
        """
        from ..sim.coltrace import ColumnarThreadTrace, ColumnarTrace, concat_columns
        from .generators import unit_streams

        spec = spec or TraceSpec()
        line = machine.line_bytes
        tiled = "loop_tiling" in steps
        gap = 2.0
        n_streams = 10
        threads = []
        for t in range(spec.threads):
            if tiled:
                # Shorter stream segments with re-traversal: extra L2 hits.
                segment = spec.accesses_per_thread // 4
                accesses = concat_columns(
                    [
                        unit_streams(
                            segment,
                            line,
                            streams=n_streams,
                            region_id=16 * t + (rep % 2),
                            element_bytes=8,
                            gap_cycles=gap,
                            store_stream=True,
                        )
                        for rep in range(4)
                    ]
                )
            else:
                accesses = unit_streams(
                    spec.accesses_per_thread,
                    line,
                    streams=n_streams,
                    region_id=16 * t,
                    element_bytes=8,
                    gap_cycles=gap,
                    store_stream=True,
                )
            threads.append(ColumnarThreadTrace.from_columns(t, accesses))
        return ColumnarTrace(
            tuple(threads), routine=self.routine, line_bytes=line
        )


MINIGHOST = MinighostWorkload()
