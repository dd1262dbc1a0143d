"""Fixed-point bandwidth/latency/MLP solver (DESIGN.md §5).

Little's law closes a feedback loop between three quantities:

* the MLP a routine can sustain per core,
  ``n = min(demand_mlp, binding MSHR file size)``;
* the bandwidth that MLP drives, ``BW = cores * n * cls / lat``;
* the loaded latency that bandwidth causes, ``lat = curve(BW)``.

The consistent operating point is the root of
``g(bw) = bw - min(cap, BW(n, curve(bw)))``, where ``cap`` is the
machine's achievable-streams ceiling.  The curve is monotone
non-decreasing, so ``g`` is non-decreasing in ``bw`` and the solver
bisects ``[0, cap]`` until the bracket is within a relative 1e-9
(at most 500 steps) — robust even across the steep knee segments of
tabulated curves.

If ``g(cap) <= 0`` the demand saturates the ceiling even at the top of
the curve: bandwidth is capped and latency is *backed out* of Little's
law (never below what the curve says) — the queueing regime where extra
demand just inflates latency, which is why ISx-optimized on KNL reads
238 ns at 86 % utilization.  The returned ``residual`` reports how far
the point sits from the fixed point, as a health check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.littles_law import bandwidth_from_mlp, latency_from_mlp
from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.latency_model import LatencyModel, model_for_machine
from ..memory.profile import LatencyProfile
from ..units import NANO, to_gb_per_s

#: Convergence tolerance on relative bandwidth change.
_TOLERANCE = 1e-9
_MAX_ITERATIONS = 500


@dataclass(frozen=True)
class SolvedPoint:
    """The consistent (bandwidth, latency, MLP) operating point."""

    bandwidth_bytes: float
    latency_ns: float
    #: Sustained per-core MLP (min of demand and the MSHR limit).
    n_sustained: float
    #: Observed per-core occupancy (= BW*lat/cls/cores; can exceed
    #: n_sustained slightly only through rounding, or fall below it when
    #: bandwidth-capped).
    n_observed: float
    bandwidth_capped: bool
    iterations: int
    #: Final relative residual of the fixed point: how far the returned
    #: bandwidth sits from ``min(cap, BW(n, lat))``, normalized by the
    #: achievable ceiling.  Near float rounding for both the bisection
    #: and the closed-form path; printed under ``-v`` as a health check.
    residual: float = 0.0

    @property
    def bandwidth_gbs(self) -> float:
        """Solved bandwidth in GB/s."""
        return to_gb_per_s(self.bandwidth_bytes)


class _ProfileAsModel:
    """Adapter: query a LatencyProfile with utilization like a model."""

    def __init__(self, profile: LatencyProfile) -> None:
        self._profile = profile

    @property
    def idle_latency_ns(self) -> float:
        return self._profile.idle_latency_ns

    def latency_ns(self, utilization: float) -> float:
        bw = min(utilization, 1.0) * self._profile.peak_bw_bytes
        bw = min(bw, self._profile.max_measured_bw_bytes)
        return self._profile.latency_at(bw)


def solve_operating_point(
    machine: MachineSpec,
    demand_mlp: float,
    binding_level: int,
    *,
    curve: Optional[Union[LatencyModel, LatencyProfile]] = None,
    cores: Optional[int] = None,
) -> SolvedPoint:
    """Solve the Little's-law fixed point for one workload state.

    Parameters
    ----------
    machine:
        Machine spec (MSHR limits, line size, bandwidth ceilings).
    demand_mlp:
        Per-core MLP the code expresses.
    binding_level:
        Which MSHR file (1 or 2) bounds the in-flight requests.
    curve:
        Loaded-latency source: a model or a measured profile.  Defaults
        to the machine's calibrated model.
    cores:
        Active cores (defaults to the machine's loaded-run count).
    """
    if demand_mlp <= 0:
        raise ConfigurationError("demand_mlp must be positive")
    ncores = cores if cores is not None else machine.active_cores
    if not 0 < ncores <= machine.cores:
        raise ConfigurationError(f"cores must be in 1..{machine.cores}")

    if curve is None:
        model: Union[LatencyModel, _ProfileAsModel] = model_for_machine(machine)
    elif isinstance(curve, LatencyProfile):
        model = _ProfileAsModel(curve)
    else:
        model = curve

    limit = machine.mshr_limit(binding_level)
    n = min(demand_mlp, float(limit))
    cls = machine.line_bytes
    peak = machine.memory.peak_bw_bytes
    cap = machine.memory.achievable_bw_bytes

    # g(bw) = bw - min(cap, n*cores*cls/lat(bw)) is non-decreasing in bw
    # (the curve is non-decreasing), so the root is found by bisection —
    # robust even across the steep knee segments of the tabulated curves.
    def residual(bw_value: float) -> float:
        lat_value = model.latency_ns(min(1.0, bw_value / peak))
        return bw_value - min(cap, bandwidth_from_mlp(n, lat_value, cls, cores=ncores))

    lo, hi = 0.0, cap
    if residual(hi) <= 0.0:
        bw = cap  # demand exceeds what the cap admits even at top latency
        iterations = 1
    else:
        iterations = 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= _TOLERANCE * max(hi, 1.0):
                break
        bw = 0.5 * (lo + hi)

    capped = bw >= cap * (1.0 - 1e-6)
    if capped:
        # Queueing regime: latency is whatever makes Little's law hold
        # at the capped bandwidth, never less than the curve says.
        lat = max(
            model.latency_ns(min(1.0, bw / peak)),
            latency_from_mlp(n, bw, cls, cores=ncores),
        )
    else:
        lat = model.latency_ns(min(1.0, bw / peak))

    n_observed = bw * lat * NANO / cls / ncores
    final_residual = (
        abs(bw - min(cap, bandwidth_from_mlp(n, lat, cls, cores=ncores))) / cap
    )
    return SolvedPoint(
        bandwidth_bytes=bw,
        latency_ns=lat,
        n_sustained=n,
        n_observed=n_observed,
        bandwidth_capped=capped,
        iterations=iterations,
        residual=final_residual,
    )
