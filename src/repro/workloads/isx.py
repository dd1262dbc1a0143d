"""ISx — scalable integer sort (paper Section IV-A, Table IV).

``count_local_keys`` reads the key array sequentially and increments a
bucket counter at a random location per key: one small streaming
reference plus dominant random read-modify-write traffic.  The random
traffic defeats the L2 hardware prefetcher, so the **L1 MSHR file
binds** the base version on every machine — which is why vectorization
and SMT do nothing on SKL (10 L1 MSHRs already full at n≈10.1) and only
a little on KNL (12 L1 MSHRs), and why **L2 software prefetching** is
the unlock: it moves the outstanding requests into the larger, idle L2
MSHR file (KNL: 32/core, A64FX: ~20/core).

Calibration notes (paper-measured base occupancies; effect factors):

* base ``demand_mlp``: 10.5 on SKL (slightly over the 10-entry L1 file;
  paper footnote 5 attributes the 10.1 reading to the small streaming
  reference using L2 MSHRs), 10.23 on KNL, 9.92 on A64FX;
* vectorization barely widens a random-update loop (scatter-increment
  with conflict hazards): x1.00 SKL / x1.04 KNL;
* 2-way SMT adds a little MLP on KNL (x1.09, to 11.6 ≈ the 12-entry
  file); 4-way goes past the file and only adds contention (paper:
  0.98x);
* L2 software prefetch lifts sustained MLP to ~20 on KNL and ~18 on
  A64FX (paper's measured optimized occupancies), with small effective
  traffic changes (prefetch pipelining removes some wasted fetches).
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


class IsxWorkload(Workload):
    """ISx ``count_local_keys`` model."""

    def __init__(self) -> None:
        super().__init__(
            name="isx",
            routine="count_local_keys",
            description="Scalable Integer Sort (bucket counting)",
            problem_size="Keys per PE = 25165824",
            pattern=AccessPattern.RANDOM,
            random_fraction=0.95,
            calibrations={
                "skl": MachineCalibration(
                    demand_mlp=10.5,
                    binding_level=1,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                    ),
                ),
                "knl": MachineCalibration(
                    demand_mlp=10.23,
                    binding_level=1,
                    row_plan=(
                        ((), "vectorize"),
                        (("vectorize",), "smt2"),
                        (("vectorize", "smt2"), "smt4"),
                        (("vectorize", "smt2"), "l2_prefetch"),
                        (("vectorize", "smt2", "l2_prefetch"), None),
                    ),
                ),
                "a64fx": MachineCalibration(
                    demand_mlp=9.92,
                    binding_level=1,
                    row_plan=(
                        ((), "l2_prefetch"),
                        (("l2_prefetch",), None),
                    ),
                ),
            },
            effects={
                "vectorize@skl": TransformEffect(
                    demand_factor=1.00,
                    rationale="scatter-increment loop: vector conflict "
                    "detection serializes; no MLP gain on SKL",
                ),
                "vectorize": TransformEffect(
                    demand_factor=1.042,
                    traffic_factor=1.01,
                    rationale="AVX-512 CD vectorization of the count loop "
                    "adds a sliver of MLP (paper: 10.23 -> 10.66 on KNL)",
                ),
                "smt2@skl": TransformEffect(
                    demand_factor=1.05,
                    smt_ways=2,
                    rationale="L1 MSHRs already saturated; extra thread "
                    "cannot add in-flight misses",
                ),
                "smt2": TransformEffect(
                    demand_factor=1.088,
                    traffic_factor=1.030,
                    smt_ways=2,
                    rationale="two threads share 12 L1 MSHRs; occupancy "
                    "10.66 -> 11.6 on KNL",
                ),
                "smt4": TransformEffect(
                    demand_factor=1.20,
                    traffic_factor=1.06,
                    smt_ways=4,
                    rationale="demand clips at the 12-entry L1 file while "
                    "thread contention inflates traffic: net slowdown",
                ),
                "l2_prefetch": TransformEffect(
                    demand_absolute=20.0,
                    shift_binding_to=2,
                    traffic_factor=0.97,
                    rationale="software prefetch to L2 engages the idle L2 "
                    "MSHRs (32/core on KNL); sustained MLP ~20",
                ),
                "l2_prefetch@a64fx": TransformEffect(
                    demand_absolute=17.95,
                    shift_binding_to=2,
                    traffic_factor=0.93,
                    rationale="~20 L2 MSHRs/core on A64FX; measured "
                    "occupancy 17.95 after prefetching",
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
        """Random bucket updates + a thin key-stream, per thread."""
        from ..sim.coltrace import (
            ColumnarThreadTrace,
            ColumnarTrace,
            interleave_columns,
        )
        from .generators import random_updates, spawn_thread_generator, unit_streams

        spec = spec or TraceSpec()
        rng = random.Random(spec.seed)
        line = machine.line_bytes
        prefetch = "l2_prefetch" in steps
        # Update cadence (~12 cycles per bucket increment on 64B-line
        # machines) reflects the load-increment-store dependency chain
        # of count_local_keys; scaled with line size so per-core byte
        # demand stays comparable on A64FX's 256B lines.
        base_gap = 10.0 if "vectorize" in steps else 12.0
        gap = base_gap * (line / 64) ** 0.5
        threads = []
        for t in range(spec.threads):
            trng = spawn_thread_generator(rng)
            updates = random_updates(
                int(spec.accesses_per_thread * 0.9),
                line,
                trng,
                region_id=4 * t,
                gap_cycles=gap,
                write_fraction=0.5,
                prefetch_to_l2=prefetch,
                # Far enough ahead that the prefetch beats the demand by
                # a full memory latency (the paper's software pipelining).
                prefetch_distance=64,
            )
            keys = unit_streams(
                spec.accesses_per_thread - int(spec.accesses_per_thread * 0.9),
                line,
                streams=1,
                region_id=4 * t + 2,
                element_bytes=8,
                gap_cycles=gap,
            )
            merged = interleave_columns(updates, keys, period=9)
            threads.append(ColumnarThreadTrace.from_columns(t, merged))
        return ColumnarTrace(
            tuple(threads), routine=self.routine, line_bytes=line
        )


ISX = IsxWorkload()
