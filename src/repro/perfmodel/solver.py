"""Little's-law operating-point solver (DESIGN.md §5).

Little's law closes a feedback loop between three quantities:

* the MLP a routine can sustain per core,
  ``n = min(demand_mlp, binding MSHR file size)``;
* the bandwidth that MLP drives, ``BW = cores * n * cls / lat``;
* the loaded latency that bandwidth causes, ``lat = curve(BW)``.

The consistent operating point is the root of ``BW * lat(BW) = K`` with
``K = n * cores * cls * 1e9`` (paper Eq. 2), below the machine's
achievable-streams ceiling ``cap``.  Every curve the library builds is
piecewise of one form in utilization ``u = BW / peak``:

    lat(u) = (a + q * (u - u0)) / (1 - r * u)      on [u0, u1]

— chords (``r = 0``) for :class:`~repro.memory.latency_model.TabulatedLatencyModel`
and :class:`~repro.memory.profile.LatencyProfile`, and the M/M/1 form
``L0 + A*u/(1-u)`` (``a = L0, q = A - L0, r = 1``) for
:class:`~repro.perfmodel.queueing.QueueingParams`.  ``BW * lat`` grows
with ``u``, so the solver walks the segments to the first whose top
reaches ``K`` and solves the quadratic there exactly: with
``u = u0 + t``,

    peak*q * t^2 + B * t - C = 0,   B = peak*(a + q*u0) + K*r,
                                    C = K*(1 - r*u0) - peak*u0*a,

whose root is ``t = 2C / (B + sqrt(B^2 + 4*peak*q*C))`` — Hill's point
in *Three Other Models of Computer System Performance*: Little's law
over a queueing curve is a closed-form problem.  Those three are the
only curves the solver accepts; anything else raises
:class:`~repro.errors.ConfigurationError`.

If ``K >= cap * lat(cap)`` the demand saturates the ceiling even at the
top of the curve: bandwidth is capped and latency is *backed out* of
Little's law (never below what the curve says) — the queueing regime
where extra demand just inflates latency, which is why ISx-optimized on
KNL reads 238 ns at 86 % utilization.  The returned ``residual``
reports how far the point sits from the fixed point, as a health check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from ..core.littles_law import bandwidth_from_mlp, latency_from_mlp
from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.latency_model import TabulatedLatencyModel, model_for_machine
from ..memory.profile import LatencyProfile
from ..units import GIGA, NANO, to_gb_per_s

if TYPE_CHECKING:
    from .queueing import QueueingParams

#: One piece of a latency curve, ``(u0, u1, a, q, r)``: on ``[u0, u1]``
#: the latency is ``(a + q*(u - u0)) / (1 - r*u)``.
Segment = Tuple[float, float, float, float, float]

#: The curve kinds the solver accepts.
Curve = Union[TabulatedLatencyModel, LatencyProfile, "QueueingParams"]


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
    #: Curve segments the solver examined (0 when the demand saturates
    #: the ceiling and no root is needed).
    iterations: int
    #: Final relative residual of the fixed point: how far the returned
    #: bandwidth sits from ``min(cap, BW(n, lat))``, normalized by the
    #: achievable ceiling.  Near float rounding on every route; printed
    #: under ``-v`` as a health check.
    residual: float = 0.0

    @property
    def bandwidth_gbs(self) -> float:
        """Solved bandwidth in GB/s."""
        return to_gb_per_s(self.bandwidth_bytes)


def _chords(points: Sequence[Tuple[float, float]]) -> List[Segment]:
    """Segments of a piecewise-linear ``(u, lat)`` curve, flat past its ends."""
    segments = [(0.0, points[0][0], points[0][1], 0.0, 0.0)]
    for (u0, l0), (u1, l1) in zip(points, points[1:]):
        segments.append((u0, u1, l0, (l1 - l0) / (u1 - u0), 0.0))
    segments.append((points[-1][0], math.inf, points[-1][1], 0.0, 0.0))
    return segments


def _curve_view(
    machine: MachineSpec, curve: Optional[Curve]
) -> Tuple[float, float, Callable[[float], float], List[Segment]]:
    """``(peak, cap, latency at bandwidth, segments)`` of one curve.

    Raises :class:`~repro.errors.ConfigurationError` for a curve that
    is none of the three kinds, or that was made for another machine.
    """
    from .queueing import UTILIZATION_CAP, QueueingParams  # it imports this module

    if curve is None:
        curve = model_for_machine(machine)
    if isinstance(curve, (LatencyProfile, QueueingParams)):
        if curve.machine_name != machine.name:
            raise ConfigurationError(
                f"curve is for {curve.machine_name!r}, machine is {machine.name!r}"
            )
    peak = machine.memory.peak_bw_bytes
    cap = machine.memory.achievable_bw_bytes
    if isinstance(curve, LatencyProfile):
        profile, top = curve, curve.max_measured_bw_bytes
        # A profile is read at the bandwidth its own peak maps u to,
        # clamped at the highest measured point.
        ratio = profile.peak_bw_bytes / peak
        points = [
            (p.bandwidth_bytes / profile.peak_bw_bytes, p.latency_ns)
            for p in profile.points
        ]
        return (
            peak,
            cap,
            lambda bw: profile.latency_at(min(bw * ratio, top)),
            _chords(points),
        )
    model = curve
    if isinstance(model, TabulatedLatencyModel):
        segments = _chords(model.points)
    elif isinstance(model, QueueingParams):
        peak, cap = model.peak_bw_bytes, model.achievable_bw_bytes
        l0, u_top = model.unloaded_latency_ns, UTILIZATION_CAP
        segments = [
            (0.0, u_top, l0, model.contention_ns - l0, 1.0),
            (u_top, math.inf, model.latency_ns(u_top), 0.0, 0.0),
        ]
    else:
        raise ConfigurationError(
            "curve must be a TabulatedLatencyModel, LatencyProfile or "
            f"QueueingParams, got {type(curve).__name__}"
        )
    return peak, cap, lambda bw: model.latency_ns(min(1.0, bw / peak)), segments


def _root(
    k: float, peak: float, top: float, segments: List[Segment]
) -> Tuple[float, int]:
    """Utilization in ``[0, top]`` where ``peak*u*lat(u) = K``, and the
    number of segments examined."""
    for examined, (u0, u1, a, q, r) in enumerate(segments, 1):
        hi = min(u1, top)
        if hi >= top or peak * hi * (a + q * (hi - u0)) >= k * (1.0 - r * hi):
            break
    b = peak * (a + q * u0) + k * r
    c = k * (1.0 - r * u0) - peak * u0 * a
    # Exactly a perfect square when A = 0 on the M/M/1 segment; the
    # clamp keeps rounding from taking it below zero.
    disc = max(b * b + 4.0 * peak * q * c, 0.0)
    return u0 + 2.0 * c / (b + math.sqrt(disc)), examined


def solve_operating_point(
    machine: MachineSpec,
    demand_mlp: float,
    binding_level: int,
    *,
    curve: Optional[Curve] = None,
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
        Loaded-latency source: a tabulated model, a measured profile,
        or calibrated :class:`~repro.perfmodel.queueing.QueueingParams`
        (which also supply peak and ceiling).  Defaults to the
        machine's calibrated model.  A profile or calibration made for
        another machine, or any other kind of curve, raises
        :class:`~repro.errors.ConfigurationError`.
    cores:
        Active cores (defaults to the machine's loaded-run count).
    """
    if demand_mlp <= 0:
        raise ConfigurationError("demand_mlp must be positive")
    ncores = cores if cores is not None else machine.active_cores
    if not 0 < ncores <= machine.cores:
        raise ConfigurationError(f"cores must be in 1..{machine.cores}")
    peak, cap, latency, segments = _curve_view(machine, curve)

    n = min(demand_mlp, float(machine.mshr_limit(binding_level)))
    cls = machine.line_bytes
    k = n * ncores * cls * GIGA  # the BW * lat product Eq. 2 demands
    examined = 0
    if k >= cap * latency(cap):
        bw = cap  # demand exceeds what the cap admits even at top latency
    else:
        u, examined = _root(k, peak, cap / peak, segments)
        bw = min(u * peak, cap)

    lat = latency(bw)
    capped = bw >= cap * (1.0 - 1e-6)
    if capped:
        # Queueing regime: latency is whatever makes Little's law hold
        # at the capped bandwidth, never less than the curve says.
        lat = max(lat, latency_from_mlp(n, bw, cls, cores=ncores))

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
        iterations=examined,
        residual=final_residual,
    )
