"""Experiment harness: run reproductions and compare to the paper.

For each case-study table the harness produces a
:class:`TableReproduction`: the model-generated rows, row-by-row
comparisons against :mod:`repro.experiments.paperdata`, and the *shape
checks* DESIGN.md §4 commits to:

* base-row and per-row ``n_avg`` within tolerance of the paper's,
* observed bandwidth within tolerance,
* speedups within a band (who wins and by roughly what factor),
* recipe benefit/no-benefit agreement for every row, modulo the three
  **paper-documented caveat rows** (SMT cache-residency contention on
  MiniGhost-KNL and SNAP) listed in :data:`KNOWN_EXCEPTIONS` with the
  paper's own explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.report import ComparisonRow, render_case_study_table
from ..errors import ExperimentError
from ..machines.registry import get_machine, paper_machines
from ..perfmodel.casestudy import CaseStudyResult, run_case_study
from ..workloads import get_workload
from .paperdata import CASE_STUDY_TABLES, TABLE_NUMBER, PaperRow

#: Relative tolerance on n_avg and bandwidth versus the paper.
N_AVG_TOLERANCE = 0.20
BW_TOLERANCE = 0.15
#: Speedup band: |model - paper| must be within this (absolute).
SPEEDUP_TOLERANCE = 0.12

#: Rows where the paper itself reports that its recipe's expectation was
#: defeated by effects outside the MLP model, quoted from the text.
KNOWN_EXCEPTIONS: Mapping[Tuple[str, str, str, str], str] = {
    ("minighost", "knl", "+ tiling", "smt2"): (
        "paper IV-E: 'we observe a noticeable increase in the memory "
        "accesses due to contention between hyperthreads for L2/LLC cache "
        "occupancy'"
    ),
    ("minighost", "knl", "+ tiling, 2-ht", "smt4"): (
        "paper IV-E: 'This is again the effect of LLC cache contention or "
        "thrashing.'"
    ),
    ("snap", "skl", "+ pref", "smt2"): (
        "paper IV-F: 'this smaller gain from hyperthreading can be "
        "attributed to considerably more cache miss rates due to "
        "hyperthreading'"
    ),
    ("snap", "knl", "+ pref, 2-ht", "smt4"): (
        "paper IV-F: 'Again, the gain is reduced by increased cache misses.'"
    ),
}


@dataclass(frozen=True)
class RowComparison:
    """Model-vs-paper for one table row."""

    result: CaseStudyResult
    paper: PaperRow
    n_avg_ok: bool
    bw_ok: bool
    speedup_ok: Optional[bool]
    recipe_ok: Optional[bool]
    known_exception: Optional[str]

    @property
    def label(self) -> str:
        """'machine/source' row identifier."""
        return f"{self.result.machine}/{self.result.source_label}"

    @property
    def all_ok(self) -> bool:
        """Every applicable tolerance/agreement check passed."""
        checks = [self.n_avg_ok, self.bw_ok]
        if self.speedup_ok is not None:
            checks.append(self.speedup_ok)
        if self.recipe_ok is not None and self.known_exception is None:
            checks.append(self.recipe_ok)
        return all(checks)


@dataclass(frozen=True)
class TableReproduction:
    """One full table's reproduction and verdicts."""

    workload: str
    table_number: str
    comparisons: Tuple[RowComparison, ...]

    @property
    def rows_ok(self) -> int:
        """Rows with every check within tolerance."""
        return sum(1 for c in self.comparisons if c.all_ok)

    @property
    def all_ok(self) -> bool:
        """True when every row is within tolerance."""
        return all(c.all_ok for c in self.comparisons)

    def failures(self) -> List[RowComparison]:
        """Rows that fell outside the tolerance bands."""
        return [c for c in self.comparisons if not c.all_ok]

    def render(self) -> str:
        """Paper-style table rendering of the reproduced rows."""
        rows = [
            c.result.to_table_row(get_machine(c.result.machine).peak_bw_gbs)
            for c in self.comparisons
        ]
        title = (
            f"Table {self.table_number} reproduction - {self.workload} "
            f"({self.rows_ok}/{len(self.comparisons)} rows within tolerance)"
        )
        return render_case_study_table(title, rows)

    def comparison_rows(self) -> List[ComparisonRow]:
        """Paper-vs-measured rows for EXPERIMENTS.md-style tables."""
        out = []
        for c in self.comparisons:
            out.append(
                ComparisonRow(
                    label=c.label,
                    paper_n_avg=c.paper.n_avg,
                    measured_n_avg=c.result.n_avg,
                    paper_speedup=c.paper.speedup,
                    measured_speedup=c.result.speedup,
                    agrees=c.all_ok,
                )
            )
        return out


def _match_rows(
    results: Sequence[CaseStudyResult], paper_rows: Sequence[PaperRow]
) -> List[Tuple[CaseStudyResult, PaperRow]]:
    if len(results) != len(paper_rows):
        raise ExperimentError(
            f"row count mismatch: model produced {len(results)}, paper has "
            f"{len(paper_rows)}"
        )
    pairs = []
    for res, pap in zip(results, paper_rows):
        if res.machine != pap.proc:
            raise ExperimentError(
                f"row order mismatch: model {res.machine}, paper {pap.proc}"
            )
        pairs.append((res, pap))
    return pairs


def reproduce_table(workload_name: str) -> TableReproduction:
    """Run one case-study table end to end and compare to the paper."""
    workload = get_workload(workload_name)
    paper_rows = CASE_STUDY_TABLES[workload_name]
    results = run_case_study(workload, paper_machines())

    comparisons = []
    for res, pap in _match_rows(results, paper_rows):
        n_ok = abs(res.n_avg - pap.n_avg) <= N_AVG_TOLERANCE * max(pap.n_avg, 0.1)
        bw_ok = abs(res.bw_gbs - pap.bw_gbs) <= BW_TOLERANCE * pap.bw_gbs
        if res.speedup is None or pap.speedup is None:
            sp_ok: Optional[bool] = None
        else:
            sp_ok = abs(res.speedup - pap.speedup) <= SPEEDUP_TOLERANCE
        exception = KNOWN_EXCEPTIONS.get(
            (workload_name, res.machine, res.source_label, res.step or "")
        )
        comparisons.append(
            RowComparison(
                result=res,
                paper=pap,
                n_avg_ok=n_ok,
                bw_ok=bw_ok,
                speedup_ok=sp_ok,
                recipe_ok=res.recipe_agrees,
                known_exception=exception,
            )
        )
    return TableReproduction(
        workload=workload_name,
        table_number=TABLE_NUMBER[workload_name],
        comparisons=tuple(comparisons),
    )


def reproduce_all_tables() -> Dict[str, TableReproduction]:
    """Reproduce Tables IV-IX, in paper order."""
    return {name: reproduce_table(name) for name in CASE_STUDY_TABLES}
