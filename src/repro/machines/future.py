"""Hypothetical HBM2e/3-class machines — the paper's §IV-G outlook.

Section IV-G argues that MSHRQ occupancy is the reliable ("full proof")
certificate of compute-boundedness, and that the argument only gets
stronger on upcoming memory systems: "In upcoming processors with
HBM2e/3, L2 MSHRQ becomes full prior to achieving peak bandwidth even
for streaming applications."

These machine models make that claim testable.  The key ratio is the
bandwidth the L2 MSHR file can sustain at loaded latency versus the
socket's peak:

    sustainable = cores * L2_MSHRs * line / latency

On A64FX (48 x 20 x 256B / ~200ns ≈ 1.2 TB/s vs 1.02 TB/s peak) the
file can just about feed the memory; on the HBM3 part below
(64 x 24 x 64B / ~250ns ≈ 0.39 TB/s vs 3.2 TB/s peak) it cannot come
close — the MSHR ceiling, not the memory, bounds every application, so
*any* routine that fills the file is memory-system bound and any that
does not is certified compute bound.
"""

from __future__ import annotations

from .spec import MachineSpec, make_machine

#: A speculative HBM2e part: ~1.6 TB/s socket, conventional 64B lines,
#: core counts and MSHR files scaled modestly from today's servers.
HBM2E_LATENCY_CALIBRATION = (
    (0.00, 130.0),
    (0.25, 150.0),
    (0.50, 175.0),
    (0.70, 215.0),
    (0.85, 290.0),
    (1.00, 420.0),
)

#: A speculative HBM3 part: ~3.2 TB/s socket.
HBM3_LATENCY_CALIBRATION = (
    (0.00, 120.0),
    (0.25, 140.0),
    (0.50, 165.0),
    (0.70, 205.0),
    (0.85, 280.0),
    (1.00, 410.0),
)


def hbm2e_concept() -> MachineSpec:
    """A near-future HBM2e-class socket."""
    return make_machine(
        name="hbm2e",
        vendor="Concept",
        isa_family="x86",
        cores=64,
        frequency_ghz=2.4,
        smt_ways=2,
        line_bytes=64,
        l1_kib=48,
        l1_mshrs=16,
        l2_kib=1024,
        l2_mshrs=24,
        vector_isa="AVX-512",
        vector_bits=512,
        mem_technology="HBM2e",
        peak_bw_gbs=1600.0,
        achievable_fraction=0.85,
        latency_calibration=HBM2E_LATENCY_CALIBRATION,
        peak_gflops=64 * 2.4 * 32,
        prefetch_streams=24,
    )


def hbm3_concept() -> MachineSpec:
    """A farther-future HBM3-class socket, deep in the MSHR-bound regime."""
    return make_machine(
        name="hbm3",
        vendor="Concept",
        isa_family="arm",
        cores=64,
        frequency_ghz=2.6,
        smt_ways=2,
        line_bytes=64,
        l1_kib=64,
        l1_mshrs=16,
        l2_kib=1024,
        l2_mshrs=24,
        vector_isa="SVE2",
        vector_bits=512,
        mem_technology="HBM3",
        peak_bw_gbs=3200.0,
        achievable_fraction=0.85,
        latency_calibration=HBM3_LATENCY_CALIBRATION,
        peak_gflops=64 * 2.6 * 32,
        prefetch_streams=24,
    )


def mshr_bound_fraction(machine: MachineSpec, *, loaded_latency_ns: float) -> float:
    """Peak-bandwidth fraction the full L2 MSHR file can sustain.

    Below 1.0 the machine is in the paper's §IV-G regime: the L2 MSHRQ
    fills before peak bandwidth is reachable, even for streaming code.
    """
    sustainable = machine.max_bw_from_mshrs(2, loaded_latency_ns)
    return sustainable / machine.memory.peak_bw_bytes
