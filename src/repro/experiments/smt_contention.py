"""SMT cache-residency contention — the mechanism behind the paper's
recipe exceptions, demonstrated on the simulator.

Three case-study rows defeat the paper's recipe (MiniGhost/KNL 2-ht,
SNAP 2-ht/4-ht), all with the same explanation: "contention between
hyperthreads for L2/LLC cache occupancy" inflates misses and eats the
MLP gain.  The MLP metric cannot see this coming — it is a
cache-capacity effect, not an MSHR effect — which is why the paper
files it under "user intuition... is still useful".

This experiment reproduces the mechanism directly: run the same total
work as

* **spread**: two threads on two cores (private caches each), versus
* **smt**: two threads sharing one core's caches,

and compare per-access memory traffic.  Cache-reliant workloads (CoMD's
hot footprint, SNAP's temporaries) suffer real traffic inflation under
SMT; ISx's random stream has no residency to lose and shows none —
exactly the split between the paper's exception rows and its clean SMT
wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..machines.registry import get_machine
from ..machines.spec import MachineSpec
from ..sim.hierarchy import SimConfig, run_trace
from ..units import KILO
from ..workloads import get_workload
from ..workloads.base import TraceSpec, Workload


@dataclass(frozen=True)
class ContentionResult:
    """Cache-pressure comparison for one workload: spread vs SMT placement."""

    workload: str
    machine: str
    spread_l1_miss_rate: float
    smt_l1_miss_rate: float
    #: Demand fetches that had to go to memory, per 1000 accesses.
    spread_dram_demand_per_kaccess: float
    smt_dram_demand_per_kaccess: float

    @property
    def l1_miss_inflation(self) -> float:
        """SMT's L1 miss-rate growth (cache-residency contention)."""
        if self.spread_l1_miss_rate <= 0:
            return 1.0
        return self.smt_l1_miss_rate / self.spread_l1_miss_rate

    @property
    def dram_demand_inflation(self) -> float:
        """SMT's growth in demand fetches reaching memory."""
        if self.spread_dram_demand_per_kaccess <= 0:
            return 1.0
        return (
            self.smt_dram_demand_per_kaccess / self.spread_dram_demand_per_kaccess
        )

    @property
    def contended(self) -> bool:
        """Does SMT placement cost this workload real cache residency?"""
        return self.l1_miss_inflation > 1.2 or self.dram_demand_inflation > 1.2

    def render(self) -> str:
        """One-line spread-vs-SMT comparison."""
        return (
            f"{self.workload:<11s} on {self.machine}: "
            f"L1 miss {self.spread_l1_miss_rate:5.1%} -> "
            f"{self.smt_l1_miss_rate:5.1%} ({self.l1_miss_inflation:4.2f}x), "
            f"DRAM demand/kacc {self.spread_dram_demand_per_kaccess:6.1f} -> "
            f"{self.smt_dram_demand_per_kaccess:6.1f} "
            f"({self.dram_demand_inflation:4.2f}x)"
            + ("  <- contended" if self.contended else "")
        )


def measure_contention(
    workload: Workload,
    machine: MachineSpec,
    *,
    steps: Sequence[str] = (),
    accesses_per_thread: int = 2000,
    seed: int = 5,
) -> ContentionResult:
    """Run the spread-vs-SMT comparison for one workload version."""
    spec = TraceSpec(threads=2, accesses_per_thread=accesses_per_thread, seed=seed)
    trace = workload.generate_trace(machine, steps=steps, spec=spec)

    spread = run_trace(
        trace,
        SimConfig(
            machine=machine, sim_cores=2, threads_per_core=1, window_per_core=16
        ),
    )
    smt = run_trace(
        trace,
        SimConfig(
            machine=machine, sim_cores=1, threads_per_core=2, window_per_core=16
        ),
    )
    accesses = trace.total_accesses
    return ContentionResult(
        workload=workload.name,
        machine=machine.name,
        spread_l1_miss_rate=spread.l1.miss_rate,
        smt_l1_miss_rate=smt.l1.miss_rate,
        spread_dram_demand_per_kaccess=KILO * spread.l2.misses / accesses,
        smt_dram_demand_per_kaccess=KILO * smt.l2.misses / accesses,
    )


def contention_survey(
    *, accesses_per_thread: int = 2500
) -> List[ContentionResult]:
    """The paper's split: cache-reliant workloads contend, random do not.

    The three probes mirror the exception rows and a clean SMT win:

    * CoMD on SKL — two hot footprints overflow the shared L1
      (paper IV-D's SMT traffic inflation is visible in its own table);
    * tiled MiniGhost on KNL — reuse segments thrash the shared L2
      (the paper's "contention between hyperthreads for L2/LLC cache
      occupancy");
    * ISx on SKL — random traffic with no residency to lose: the
      control case where SMT costs nothing (and the recipe's clean SMT
      recommendations hold).
    """
    return [
        measure_contention(
            get_workload("comd"),
            get_machine("skl"),
            accesses_per_thread=accesses_per_thread,
        ),
        measure_contention(
            get_workload("minighost"),
            get_machine("knl"),
            steps=("loop_tiling",),
            accesses_per_thread=accesses_per_thread,
        ),
        measure_contention(
            get_workload("isx"),
            get_machine("skl"),
            accesses_per_thread=accesses_per_thread,
        ),
    ]
