"""GPU machine and kernel models for the paper's §III-H extension.

"GPUs too rely on MSHRs in the same way as CPUs. ... analyzing the
occupancy of the MSHRQ, which tracks all the outstanding memory
requests from all the concurrent threads, could be directly useful in
understanding performance bottlenecks and guiding optimizations."

The model is per-SM (streaming multiprocessor): a warp scheduler keeps
``active_warps`` in flight, each expressing some memory-level
parallelism; all their outstanding misses share the SM's MSHR file.
Active warps are bounded by the classic occupancy limiters — the warp
slots themselves, the register file, and shared memory — computed here
exactly the way CUDA's occupancy calculator does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import gb_per_s, ns


@dataclass(frozen=True)
class GpuSpec:
    """One GPU's per-SM and socket-level resources."""

    name: str
    sms: int
    max_warps_per_sm: int
    warp_size: int
    registers_per_sm: int
    shared_mem_per_sm_bytes: int
    max_blocks_per_sm: int
    #: MSHR entries per SM (tracks all outstanding sector misses).
    mshrs_per_sm: int
    line_bytes: int
    peak_bw_gbs: float
    loaded_latency_ns: float

    def __post_init__(self) -> None:
        if min(
            self.sms,
            self.max_warps_per_sm,
            self.warp_size,
            self.registers_per_sm,
            self.shared_mem_per_sm_bytes,
            self.max_blocks_per_sm,
            self.mshrs_per_sm,
            self.line_bytes,
        ) <= 0:
            raise ConfigurationError("GPU resources must be positive")
        if self.peak_bw_gbs <= 0 or self.loaded_latency_ns <= 0:
            raise ConfigurationError("bandwidth and latency must be positive")

    @property
    def peak_bw_bytes(self) -> float:
        """Peak bandwidth in bytes/s."""
        return gb_per_s(self.peak_bw_gbs)


def a100_like() -> GpuSpec:
    """An A100-flavoured part (numbers rounded, HBM2e)."""
    return GpuSpec(
        name="gpu-a100-like",
        sms=108,
        max_warps_per_sm=64,
        warp_size=32,
        registers_per_sm=65536,
        shared_mem_per_sm_bytes=164 * 1024,
        max_blocks_per_sm=32,
        mshrs_per_sm=96,
        line_bytes=128,
        peak_bw_gbs=1555.0,
        loaded_latency_ns=450.0,
    )


@dataclass(frozen=True)
class KernelDescriptor:
    """Resource usage and memory behaviour of one GPU kernel."""

    name: str
    threads_per_block: int
    registers_per_thread: int
    shared_mem_per_block_bytes: int
    #: Outstanding memory requests one warp sustains (its per-warp MLP).
    mlp_per_warp: float
    #: Fraction of accesses that coalesce into one line per warp.
    coalescing: float = 1.0

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0 or self.registers_per_thread < 0:
            raise ConfigurationError("kernel resources must be sensible")
        if self.mlp_per_warp <= 0:
            raise ConfigurationError("mlp_per_warp must be positive")
        if not 0.0 < self.coalescing <= 1.0:
            raise ConfigurationError("coalescing must be in (0, 1]")


@dataclass(frozen=True)
class OccupancyReport:
    """Active warps per SM and what limits them."""

    active_warps: int
    limiter: str
    warp_limit: int
    register_limit: int
    shared_mem_limit: int
    block_limit: int


def occupancy(gpu: GpuSpec, kernel: KernelDescriptor) -> OccupancyReport:
    """CUDA-style occupancy: warps/SM bounded by each resource."""
    warps_per_block = max(
        1, (kernel.threads_per_block + gpu.warp_size - 1) // gpu.warp_size
    )

    warp_limit = gpu.max_warps_per_sm

    regs_per_block = kernel.registers_per_thread * kernel.threads_per_block
    if regs_per_block == 0:
        register_limit = warp_limit  # registers impose no constraint
    else:
        register_limit = (gpu.registers_per_sm // regs_per_block) * warps_per_block

    if kernel.shared_mem_per_block_bytes == 0:
        shared_mem_limit = warp_limit  # shared memory imposes no constraint
    else:
        shared_blocks = (
            gpu.shared_mem_per_sm_bytes // kernel.shared_mem_per_block_bytes
        )
        shared_mem_limit = shared_blocks * warps_per_block

    block_limit = gpu.max_blocks_per_sm * warps_per_block

    limits = {
        "warp_slots": warp_limit,
        "registers": register_limit,
        "shared_memory": shared_mem_limit,
        "block_slots": block_limit,
    }
    limiter, active = min(limits.items(), key=lambda item: item[1])
    active = max(0, min(active, warp_limit))
    return OccupancyReport(
        active_warps=active,
        limiter=limiter,
        warp_limit=warp_limit,
        register_limit=register_limit,
        shared_mem_limit=shared_mem_limit,
        block_limit=block_limit,
    )


def mshr_demand(gpu: GpuSpec, kernel: KernelDescriptor) -> float:
    """Per-SM MSHR demand: active warps × per-warp MLP ÷ coalescing gain."""
    report = occupancy(gpu, kernel)
    # Poor coalescing multiplies the lines one warp's access touches.
    lines_per_request = 1.0 / kernel.coalescing
    return report.active_warps * kernel.mlp_per_warp * lines_per_request


def sustainable_bandwidth_bytes(gpu: GpuSpec, n_per_sm: float) -> float:
    """Little's law at GPU scale: BW = SMs × n × line / latency."""
    if n_per_sm < 0:
        raise ConfigurationError("n_per_sm must be >= 0")
    return gpu.sms * n_per_sm * gpu.line_bytes / ns(gpu.loaded_latency_ns)
