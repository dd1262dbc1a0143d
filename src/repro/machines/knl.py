"""Intel Xeon Phi 7250 ("Knights Landing", KNL) — paper Table III row 2.

Parameters:

* 68 cores at a fixed 1.4 GHz; the paper uses **64** of them ("it is not
  always possible to partition the problem among 68 cores ... and also to
  allocate some resources for the OS"), so ``cores_used=64``,
* MCDRAM in flat mode, 400 GB/s theoretical peak (all data in MCDRAM),
* 12 L1 MSHRs [35] and 32 L2 MSHRs [36] per core,
* AVX-512, 4-way hyperthreading, 64 B lines,
* the L2 hardware prefetcher tracks at most **16 streams** [39] — the
  paper uses this to explain HPCG's weak 4-way SMT gain,
* KNL has no L3, so "memory traffic" is L2 misses (the
  ``OFFCORE_RESPONSE...MCDRAM/DDR`` counters).

Loaded-latency calibration reconciles the (noisy, slightly non-monotone)
KNL latencies quoted across Tables IV–IX into one monotone curve:
idle ≈ 160 ns up to ≈238 ns at 86 % utilization.
"""

from __future__ import annotations

from .spec import MachineSpec, make_machine

#: (utilization, loaded latency ns) control points fitted to the paper.
KNL_LATENCY_CALIBRATION = (
    (0.00, 160.0),
    (0.07, 172.0),
    (0.20, 180.0),
    (0.31, 183.0),
    (0.42, 185.0),
    (0.51, 186.0),
    (0.58, 188.0),
    (0.63, 191.0),
    (0.69, 199.0),
    (0.74, 207.0),
    (0.86, 238.0),
    (1.00, 265.0),
)


def knights_landing_7250() -> MachineSpec:
    """Build the KNL machine spec used throughout the paper's evaluation."""
    return make_machine(
        name="knl",
        vendor="Intel",
        isa_family="x86",
        cores=68,
        cores_used=64,
        frequency_ghz=1.4,
        smt_ways=4,
        line_bytes=64,
        l1_kib=32,
        l1_mshrs=12,
        l2_kib=512,
        l2_mshrs=32,
        vector_isa="AVX-512",
        vector_bits=512,
        mem_technology="MCDRAM",
        peak_bw_gbs=400.0,
        achievable_fraction=0.87,
        latency_calibration=KNL_LATENCY_CALIBRATION,
        # 64 used cores x 1.4 GHz x 32 DP flops/cycle = 2867 GF/s, the
        # horizontal roof in paper Figure 2.
        peak_gflops=64 * 1.4 * 32,
        prefetch_streams=16,
        l1_assoc=8,
        l2_assoc=16,
    )
