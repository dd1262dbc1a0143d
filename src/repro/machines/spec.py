"""Machine specifications (paper Table III substrate).

A :class:`MachineSpec` carries every architectural parameter the paper's
method consumes:

* core count and frequency (Table III),
* L1/L2 MSHR counts per core (Table III, with citations [23][34][35][36]),
* cache geometry including the **cache line size** — 64 B on the Intel
  parts, 256 B on A64FX, which is what makes Little's law per-core
  occupancies line up with the paper's tables,
* theoretical peak memory bandwidth plus the *achievable streams*
  fraction (the paper repeatedly distinguishes "peak achievable
  (streams) bandwidth" from theoretical peak),
* SMT ways, vector ISA, and the L2 prefetcher's stream-tracking limit
  (the paper invokes KNL's 16-stream limit to explain HPCG's weak 4-way
  hyperthreading gain).

Everything downstream (the recipe, the roofline ceilings, the simulator,
the fixed-point performance solver) reads from these specs, so the three
machine modules (:mod:`repro.machines.skl`, ``knl``, ``a64fx``) are the
single source of architectural truth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import ConfigurationError, ProfileError
from ..memory.profile import LatencyProfile
from ..units import gb_per_s, ghz, ns, to_gb_per_s, to_ghz


@dataclass(frozen=True)
class CacheSpec:
    """One cache level.

    Attributes
    ----------
    level:
        1 for L1D, 2 for L2.  The simulated hierarchy has no L3: L2
        misses are memory traffic on every machine.
    size_bytes:
        Capacity per core (private caches) or per tile.
    line_bytes:
        Cache line size.  All levels of one machine share it.
    mshrs:
        Miss Status Handling Registers at this level, per core (at
        least 1).
    associativity:
        Set associativity, used by the trace simulator.
    """

    level: int
    size_bytes: int
    line_bytes: int
    mshrs: int
    associativity: int = 8

    def __post_init__(self) -> None:
        if self.level not in (1, 2):
            raise ConfigurationError(f"cache level must be 1 or 2, got {self.level}")
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache size and line size must be positive")
        if self.size_bytes % self.line_bytes:
            raise ConfigurationError(
                f"cache size {self.size_bytes} not a multiple of line {self.line_bytes}"
            )
        if self.mshrs < 1:
            raise ConfigurationError(f"mshrs must be >= 1, got {self.mshrs}")
        if self.associativity <= 0:
            raise ConfigurationError("associativity must be positive")

    @property
    def num_lines(self) -> int:
        """Total cache lines at this level."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return max(1, self.num_lines // self.associativity)


@dataclass(frozen=True)
class VectorSpec:
    """Vector ISA capability relevant to the paper's optimizations."""

    isa: str
    width_bits: int
    has_gather_scatter: bool = True
    has_predication: bool = True

    def lanes(self, element_bytes: int = 8) -> int:
        """SIMD lanes for a given element size (default double precision)."""
        if element_bytes <= 0:
            raise ConfigurationError("element size must be positive")
        return max(1, self.width_bits // (8 * element_bytes))


@dataclass(frozen=True)
class MemorySpec:
    """Main-memory subsystem description."""

    technology: str
    peak_bw_bytes: float
    #: Fraction of theoretical peak reachable by streaming kernels;
    #: the paper's "peak achievable (streams) bandwidth".
    achievable_fraction: float = 0.87
    channels: int = 6

    def __post_init__(self) -> None:
        if self.peak_bw_bytes <= 0:
            raise ConfigurationError("peak bandwidth must be positive")
        if not 0.0 < self.achievable_fraction <= 1.0:
            raise ConfigurationError(
                f"achievable fraction must be in (0, 1], got {self.achievable_fraction}"
            )

    @property
    def achievable_bw_bytes(self) -> float:
        """Streams-achievable bandwidth in bytes/s."""
        return self.peak_bw_bytes * self.achievable_fraction


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine model (one paper Table III row).

    The latency *curve* (loaded latency as a function of bandwidth
    utilization) is the required ``latency_calibration`` — a tuple of
    ``(utilization, latency_ns)`` control points fitted to the values
    the paper quotes across Tables IV–IX.  It is the machine's only
    latency source: construction turns it into the
    :class:`~repro.memory.profile.LatencyProfile` held as
    ``latency_model`` (``source="calibration"``), whose first point is
    the idle latency; the simulator, the solver and the default Eq. 2
    analyzer all read that one object.  Points that do not form a valid
    curve raise :class:`~repro.errors.ConfigurationError` here.
    """

    name: str
    vendor: str
    isa_family: str  # "x86" or "arm"
    cores: int
    frequency_hz: float
    smt_ways: int
    l1: CacheSpec
    l2: CacheSpec
    vector: VectorSpec
    memory: MemorySpec
    #: (utilization, latency_ns) control points of the loaded-latency curve.
    latency_calibration: Tuple[Tuple[float, float], ...]
    #: Streams the L2 hardware prefetcher can track concurrently, per core.
    prefetch_streams: int = 16
    #: Whether the hardware prefetcher is aggressive enough that software
    #: prefetching rarely adds anything (paper: SNAP on SKL gained 1%
    #: because SKL's prefetcher was "good enough").
    hw_prefetcher_aggressive: bool = False
    #: Cores actually used in runs (paper uses 64 of KNL's 68).
    cores_used: Optional[int] = None
    #: Peak double-precision GFLOP/s for the whole socket (roofline top).
    peak_gflops: float = 0.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("core count must be positive")
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        if self.smt_ways < 1:
            raise ConfigurationError("smt_ways must be >= 1")
        if self.l1.level != 1 or self.l2.level != 2:
            raise ConfigurationError("l1/l2 specs must carry levels 1 and 2")
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigurationError("L1 and L2 line sizes must match")
        if self.cores_used is not None and not 0 < self.cores_used <= self.cores:
            raise ConfigurationError(
                f"cores_used must be in 1..{self.cores}, got {self.cores_used}"
            )
        try:
            model = LatencyProfile(
                self.name,
                self.memory.peak_bw_bytes,
                self.latency_calibration,
                source="calibration",
            )
        except ProfileError as exc:
            raise ConfigurationError(f"latency_calibration: {exc}") from exc
        # Kept as a plain attribute, not a field: equality, hashing,
        # ``replace`` and cache digests still see only the fields.
        object.__setattr__(self, "latency_model", model)

    # -- derived quantities -------------------------------------------------

    @property
    def active_cores(self) -> int:
        """Cores used in loaded runs (= ``cores_used`` or all cores)."""
        return self.cores_used if self.cores_used is not None else self.cores

    @property
    def line_bytes(self) -> int:
        """Cache line size (shared by L1/L2)."""
        return self.l1.line_bytes

    @property
    def frequency_ghz(self) -> float:
        """Core frequency in GHz."""
        return to_ghz(self.frequency_hz)

    @property
    def peak_bw_gbs(self) -> float:
        """Theoretical peak memory bandwidth in GB/s."""
        return to_gb_per_s(self.memory.peak_bw_bytes)

    def mshr_limit(self, level: int) -> int:
        """Per-core MSHR count at cache ``level`` (1 or 2)."""
        if level == 1:
            return self.l1.mshrs
        if level == 2:
            return self.l2.mshrs
        raise ConfigurationError(f"no MSHR file at level {level}")

    def max_bw_from_mshrs(self, level: int, latency_ns: float) -> float:
        """Bandwidth ceiling (bytes/s) imposed by the MSHRs at ``level``.

        This is the paper's Figure 2 extra roofline: with ``n`` MSHRs per
        core and loaded latency ``lat``, at most
        ``cores * n * line / lat`` bytes/s can be in flight (Little's law
        solved for bandwidth).
        """
        if latency_ns <= 0:
            raise ConfigurationError("latency must be positive")
        per_core = self.mshr_limit(level) * self.line_bytes / ns(latency_ns)
        return per_core * self.active_cores

    def describe(self) -> str:
        """One-line human description, Table III style."""
        return (
            f"{self.name}: {self.cores} cores @ {self.frequency_ghz:.1f}GHz, "
            f"{self.peak_bw_gbs:.0f} GB/s {self.memory.technology}, "
            f"L1 MSHRs {self.l1.mshrs}, L2 MSHRs {self.l2.mshrs}, "
            f"{self.vector.isa} {self.vector.width_bits}b, "
            f"SMT x{self.smt_ways}, {self.line_bytes}B lines"
        )

    def with_frequency(self, frequency_hz: float) -> "MachineSpec":
        """A copy of this spec at a different fixed core frequency."""
        return dataclasses.replace(self, frequency_hz=frequency_hz)


def make_machine(
    *,
    name: str,
    vendor: str,
    isa_family: str,
    cores: int,
    frequency_ghz: float,
    smt_ways: int,
    line_bytes: int,
    l1_kib: int,
    l1_mshrs: int,
    l2_kib: int,
    l2_mshrs: int,
    vector_isa: str,
    vector_bits: int,
    mem_technology: str,
    peak_bw_gbs: float,
    achievable_fraction: float,
    latency_calibration: Sequence[Tuple[float, float]],
    peak_gflops: float,
    prefetch_streams: int = 16,
    cores_used: Optional[int] = None,
    l1_assoc: int = 8,
    l2_assoc: int = 16,
    hw_prefetcher_aggressive: bool = False,
) -> MachineSpec:
    """Build a :class:`MachineSpec` from human-friendly units."""
    return MachineSpec(
        name=name,
        vendor=vendor,
        isa_family=isa_family,
        cores=cores,
        frequency_hz=ghz(frequency_ghz),
        smt_ways=smt_ways,
        l1=CacheSpec(1, l1_kib * 1024, line_bytes, l1_mshrs, l1_assoc),
        l2=CacheSpec(2, l2_kib * 1024, line_bytes, l2_mshrs, l2_assoc),
        vector=VectorSpec(vector_isa, vector_bits),
        memory=MemorySpec(
            technology=mem_technology,
            peak_bw_bytes=gb_per_s(peak_bw_gbs),
            achievable_fraction=achievable_fraction,
        ),
        prefetch_streams=prefetch_streams,
        cores_used=cores_used,
        latency_calibration=tuple((float(u), float(l)) for u, l in latency_calibration),
        peak_gflops=peak_gflops,
        hw_prefetcher_aggressive=hw_prefetcher_aggressive,
    )
