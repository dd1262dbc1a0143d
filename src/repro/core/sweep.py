"""The recipe's verdict over a utilization grid.

:func:`headroom_map` applies the recipe (headroom / near-full / full,
saturated or not) across a utilization grid for each access pattern,
i.e. the Figure-1 flowchart rendered as a lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from .classify import AccessPattern, Classification
from .mlp import MlpCalculator
from .recipe import OccupancyStatus, Recipe


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
