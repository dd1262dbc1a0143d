"""Intel Xeon Platinum 8160 ("Skylake", SKL) — paper Table III row 1.

Parameters:

* 24 cores fixed at 2.1 GHz (the paper pins the frequency),
* six DDR4-2666 channels, 128 GB/s theoretical peak per socket,
* 10 L1 MSHRs (line-fill buffers) and 16 L2 MSHRs per core [34],
* AVX-512 with gather/scatter and mask predication,
* 2-way hyperthreading, 64 B cache lines,
* traffic past the L3 is what the OFFCORE_RESPONSE/L3_MISS counters see;
  the simulator has no L3, so its memory traffic is L2 misses.

The ``latency_calibration`` control points reconstruct the loaded-latency
curve from every (bandwidth, latency) pair the paper quotes for SKL across
Tables IV–IX: idle ≈ 80 ns, ≈117 ns at 73 % utilization, rising steeply to
≈180 ns ("378 cycles") near saturation.
"""

from __future__ import annotations

from .spec import MachineSpec, make_machine

#: (utilization, loaded latency ns) control points fitted to the paper.
SKL_LATENCY_CALIBRATION = (
    (0.00, 80.0),
    (0.03, 82.0),
    (0.15, 87.0),
    (0.30, 93.0),
    (0.46, 100.0),
    (0.60, 107.0),
    (0.73, 117.0),
    (0.84, 147.0),
    (0.86, 171.0),
    (1.00, 185.0),
)


def skylake_8160() -> MachineSpec:
    """Build the SKL machine spec used throughout the paper's evaluation."""
    return make_machine(
        name="skl",
        vendor="Intel",
        isa_family="x86",
        cores=24,
        frequency_ghz=2.1,
        smt_ways=2,
        line_bytes=64,
        l1_kib=32,
        l1_mshrs=10,
        l2_kib=1024,
        l2_mshrs=16,
        vector_isa="AVX-512",
        vector_bits=512,
        mem_technology="DDR4",
        peak_bw_gbs=128.0,
        achievable_fraction=0.87,
        latency_calibration=SKL_LATENCY_CALIBRATION,
        # 24 cores x 2.1 GHz x 32 DP flops/cycle (2x 512-bit FMA pipes)
        peak_gflops=24 * 2.1 * 32,
        prefetch_streams=16,
        hw_prefetcher_aggressive=True,
        l1_assoc=8,
        l2_assoc=16,
    )
