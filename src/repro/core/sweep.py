"""What-if sweeps: the operating-curve views behind the paper's figures.

Three exploration helpers a performance engineer reaches for once the
single-point analysis exists:

* :func:`operating_curve` — the machine's (bandwidth, loaded latency,
  per-core ``n_avg``) locus across utilization: Equation 2 drawn as a
  curve.  The MSHR file sizes cross this curve exactly where the
  paper's ceilings sit;
* :func:`demand_sweep` — solved operating points across expressible
  MLP: "what do I get for each extra in-flight request", including the
  saturation knee;
* :func:`headroom_map` — the recipe's verdict (headroom / near-full /
  full, saturated or not) over a utilization grid for each access
  pattern, i.e. the Figure-1 flowchart rendered as a lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from .classify import AccessPattern, Classification
from .mlp import MlpCalculator
from .recipe import OccupancyStatus, Recipe


@dataclass(frozen=True)
class OperatingPoint:
    """One sample of the machine's Equation-2 locus."""

    utilization: float
    bandwidth_gbs: float
    latency_ns: float
    n_avg: float


def operating_curve(
    machine: MachineSpec,
    *,
    profile: Optional[LatencyProfile] = None,
    points: int = 33,
    max_utilization: Optional[float] = None,
) -> List[OperatingPoint]:
    """Sample (utilization → bandwidth, latency, n_avg)."""
    if points < 2:
        raise ConfigurationError("need at least two points")
    calc = MlpCalculator(machine, profile)
    top = (
        max_utilization
        if max_utilization is not None
        else machine.memory.achievable_fraction
    )
    if not 0 < top <= 1.0:
        raise ConfigurationError("max_utilization must be in (0,1]")
    utilizations = [top * i / (points - 1) for i in range(points)]

    def sample(u: float) -> OperatingPoint:
        result = calc.calculate(u * machine.memory.peak_bw_bytes)
        return OperatingPoint(
            utilization=u,
            bandwidth_gbs=result.bandwidth_gbs,
            latency_ns=result.latency_ns,
            n_avg=result.n_avg,
        )

    return [sample(u) for u in utilizations]


def utilization_where_mshrs_bind(
    machine: MachineSpec,
    level: int,
    *,
    profile: Optional[LatencyProfile] = None,
) -> Optional[float]:
    """Lowest utilization at which n_avg reaches the MSHR file at ``level``.

    Returns None when even achievable bandwidth never fills the file —
    today's parts at L2, versus the HBM3 concept part where this
    crossing *disappears below* achievable bandwidth (paper §IV-G).
    """
    limit = machine.mshr_limit(level)
    for point in operating_curve(machine, profile=profile, points=201):
        if point.n_avg >= limit:
            return point.utilization
    return None


def demand_sweep(
    machine: MachineSpec,
    binding_level: int,
    demands: Sequence[float],
) -> List[Tuple[float, float, float]]:
    """(demand_mlp, achieved GB/s, observed n_avg) across demand levels."""
    from ..perfmodel.solver import solve_operating_point

    out = []
    for demand in demands:
        point = solve_operating_point(machine, demand, binding_level)
        out.append((demand, point.bandwidth_gbs, point.n_observed))
    return out


@dataclass(frozen=True)
class HeadroomCell:
    """One cell of the recipe-verdict map."""

    pattern: AccessPattern
    utilization: float
    n_avg: float
    status: OccupancyStatus
    saturated: bool
    stop: bool


def headroom_map(
    machine: MachineSpec,
    *,
    profile: Optional[LatencyProfile] = None,
    utilizations: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.8, 0.85),
) -> List[HeadroomCell]:
    """The Figure-1 verdict over (pattern x utilization)."""
    calc = MlpCalculator(machine, profile)
    recipe = Recipe(machine)
    cells = []
    for pattern in AccessPattern:
        pf = {"random": 0.05, "streaming": 0.8, "mixed": 0.35}[pattern.value]
        for u in utilizations:
            if not 0 <= u <= 1:
                raise ConfigurationError("utilizations must be in [0,1]")
            mlp = calc.calculate(u * machine.memory.peak_bw_bytes)
            decision = recipe.decide(
                mlp, Classification(pattern, pf, rationale="sweep")
            )
            cells.append(
                HeadroomCell(
                    pattern=pattern,
                    utilization=u,
                    n_avg=mlp.n_avg,
                    status=decision.status,
                    saturated=decision.bandwidth_saturated,
                    stop=decision.stop,
                )
            )
    return cells


def render_headroom_map(cells: Sequence[HeadroomCell]) -> str:
    """Compact text rendering of :func:`headroom_map`."""
    lines = [f"{'pattern':<10s} {'util':>6s} {'n_avg':>7s}  verdict"]
    for cell in cells:
        verdict = cell.status.value + (" + saturated" if cell.saturated else "")
        if cell.stop:
            verdict += " -> STOP"
        lines.append(
            f"{cell.pattern.value:<10s} {cell.utilization:>5.0%} "
            f"{cell.n_avg:>7.2f}  {verdict}"
        )
    return "\n".join(lines)
