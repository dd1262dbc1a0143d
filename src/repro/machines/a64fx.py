"""Fujitsu A64FX — paper Table III row 3.

Parameters:

* 48 compute cores fixed at 1.8 GHz (the chip's default),
* HBM2, 1024 GB/s theoretical peak,
* 12 L1 MSHRs and ~20 L2 MSHRs per core [23],
* SVE 512-bit with gather/scatter and predication,
* **no SMT** (the paper notes "A64FX does not support SMT"),
* **256 B cache lines** — the "large cache lines" the paper had to extend
  X-Mem for.  This is load-bearing: with ``cls=256`` the paper's per-core
  occupancies fall out of Little's law exactly (e.g. ISx base:
  649 GB/s x 188 ns / 256 B / 48 cores = 9.93 ≈ the quoted 9.92),
* no L3: memory traffic is L2 misses (``BUS_READ/WRITE_TOTAL_MEM``).

Loaded-latency calibration: idle ≈ 140 ns, gentle rise to ≈188 ns at 63 %
utilization, then a sharp HBM2 queueing knee (280 ns at 77 %).
"""

from __future__ import annotations

from .spec import MachineSpec, make_machine

#: (utilization, loaded latency ns) control points fitted to the paper.
A64FX_LATENCY_CALIBRATION = (
    (0.00, 140.0),
    (0.01, 142.0),
    (0.07, 144.0),
    (0.10, 146.0),
    (0.26, 156.0),
    (0.41, 165.0),
    (0.55, 176.0),
    (0.63, 188.0),
    (0.70, 225.0),
    (0.77, 280.0),
    (0.85, 345.0),
    (1.00, 430.0),
)


def a64fx() -> MachineSpec:
    """Build the A64FX machine spec used throughout the paper's evaluation."""
    return make_machine(
        name="a64fx",
        vendor="Fujitsu",
        isa_family="arm",
        cores=48,
        frequency_ghz=1.8,
        smt_ways=1,
        line_bytes=256,
        l1_kib=64,
        l1_mshrs=12,
        l2_kib=640,
        l2_mshrs=20,
        vector_isa="SVE",
        vector_bits=512,
        mem_technology="HBM2",
        peak_bw_gbs=1024.0,
        achievable_fraction=0.80,
        latency_calibration=A64FX_LATENCY_CALIBRATION,
        # 48 cores x 1.8 GHz x 32 DP flops/cycle (2x 512-bit FMA pipes)
        peak_gflops=48 * 1.8 * 32,
        prefetch_streams=16,
        l1_assoc=4,
        l2_assoc=16,
    )
