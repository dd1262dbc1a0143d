"""Experiment E-F1: paper Figure 1 — the recipe as a decision procedure.

Figure 1 is a flowchart, so its reproduction is behavioural: every
optimization row of the reproduced Tables IV-IX already carries the
recipe's decision path (binding queue, occupancy verdict, bandwidth
verdict, expected benefit) next to the observed outcome, so
:func:`figure1_from_tables` reads the traces off the tables and runs no
case study of its own.  The aggregate accuracy — how often "recipe
expects benefit" matched "optimization helped" — is the headline number
of the whole paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from .harness import TableReproduction, reproduce_all_tables


@dataclass(frozen=True)
class DecisionTrace:
    """One row's walk through the Figure-1 flowchart."""

    workload: str
    machine: str
    source: str
    step: str
    binding_level: int
    occupancy_ratio: float
    status: str
    bandwidth_saturated: bool
    expected_benefit: str
    expects_speedup: bool
    observed_speedup: float
    helped: bool
    known_exception: Optional[str]

    @property
    def agrees(self) -> bool:
        """Did the recipe's expectation match the observed outcome?"""
        return self.expects_speedup == self.helped

    def render(self) -> str:
        """One table line for this decision trace."""
        verdict = "agree" if self.agrees else (
            "known-exception" if self.known_exception else "DISAGREE"
        )
        return (
            f"{self.workload:<10s} {self.machine:<6s} {self.source:<22s} "
            f"{self.step:<12s} L{self.binding_level} occ={self.occupancy_ratio:.0%} "
            f"{self.status:<9s} sat={str(self.bandwidth_saturated):<5s} "
            f"expect={self.expected_benefit:<11s} got {self.observed_speedup:.2f}x "
            f"-> {verdict}"
        )


@dataclass(frozen=True)
class Figure1Reproduction:
    """All decision traces plus the aggregate score."""

    traces: Tuple[DecisionTrace, ...]

    @property
    def total(self) -> int:
        """Number of optimization rows walked through the recipe."""
        return len(self.traces)

    @property
    def agreeing(self) -> int:
        """Rows where the recipe's expectation matched the outcome."""
        return sum(1 for t in self.traces if t.agrees)

    @property
    def known_exceptions(self) -> int:
        """Disagreeing rows covered by paper-documented caveats."""
        return sum(
            1 for t in self.traces if not t.agrees and t.known_exception is not None
        )

    @property
    def unexplained_disagreements(self) -> int:
        """Disagreeing rows with no documented explanation (must be 0)."""
        return self.total - self.agreeing - self.known_exceptions

    @property
    def accuracy(self) -> float:
        """Agreement rate excluding the paper-documented caveat rows."""
        denom = self.total - self.known_exceptions
        return self.agreeing / denom if denom else 1.0

    def render(self) -> str:
        """The full decision-trace report with the accuracy summary."""
        lines = ["Figure 1 reproduction - recipe decisions vs outcomes", ""]
        lines.extend(t.render() for t in self.traces)
        lines.append("")
        lines.append(
            f"accuracy: {self.agreeing}/{self.total - self.known_exceptions} "
            f"({self.accuracy:.0%}) with {self.known_exceptions} "
            "paper-documented contention exceptions"
        )
        return "\n".join(lines)


def figure1_from_tables(
    tables: Mapping[str, TableReproduction]
) -> Figure1Reproduction:
    """Read every optimization row of Tables IV-IX as a decision trace."""
    traces: List[DecisionTrace] = []
    for table in tables.values():
        for comparison in table.comparisons:
            res = comparison.result
            if res.step is None or res.speedup is None or res.recipe_benefit is None:
                continue
            traces.append(
                DecisionTrace(
                    workload=res.workload,
                    machine=res.machine,
                    source=res.source_label,
                    step=res.step,
                    binding_level=res.decision.binding_level,
                    occupancy_ratio=res.decision.occupancy_ratio,
                    status=res.decision.status.value,
                    bandwidth_saturated=res.decision.bandwidth_saturated,
                    expected_benefit=res.recipe_benefit.name,
                    expects_speedup=res.recipe_benefit.expects_speedup,
                    observed_speedup=res.speedup,
                    helped=bool(res.helped),
                    known_exception=comparison.known_exception,
                )
            )
    return Figure1Reproduction(traces=tuple(traces))


def reproduce_figure1() -> Figure1Reproduction:
    """Reproduce Tables IV-IX and walk their rows through the recipe."""
    return figure1_from_tables(reproduce_all_tables())
