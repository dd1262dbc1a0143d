"""Rendering helpers: paper-style tables for analyses and case studies.

The paper presents its evaluation as per-application tables (IV–IX)
whose columns are ``Source | BW_obs (GB/s) | lat_avg (ns) | n_avg |
Opt: Performance``.  :func:`render_case_study_table` reproduces that
layout from rows the experiments produce, and
:func:`render_comparison_table` adds paper-vs-measured columns for
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..resilience.quality import DataQualityIssue, issue_summary


@dataclass(frozen=True)
class CaseStudyRow:
    """One row of a Table IV–IX style summary."""

    proc: str
    source: str
    bw_gbs: float
    bw_pct: float
    latency_ns: float
    n_avg: float
    opt_label: str
    speedup: Optional[float]

    def perf_cell(self) -> str:
        """The paper's 'Opt: Performance' cell text."""
        if self.speedup is None:
            return "-"
        return f"{self.opt_label}: {self.speedup:.2f}x"


def render_case_study_table(title: str, rows: Sequence[CaseStudyRow]) -> str:
    """Render rows in the paper's table layout."""
    header = (
        f"{'Proc':<7s} {'Source':<24s} {'BW_obs (GB/s)':>15s} "
        f"{'lat_avg (ns)':>13s} {'n_avg':>7s}  Opt: Performance"
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.proc:<7s} {row.source:<24s} "
            f"{row.bw_gbs:>8.1f} ({row.bw_pct:>3.0f}%) "
            f"{row.latency_ns:>13.0f} {row.n_avg:>7.2f}  {row.perf_cell()}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class ComparisonRow:
    """Paper-vs-measured for one experiment row."""

    label: str
    paper_n_avg: float
    measured_n_avg: float
    paper_speedup: Optional[float]
    measured_speedup: Optional[float]
    agrees: bool


def render_data_quality(issues: Sequence[DataQualityIssue]) -> str:
    """Render a degraded-mode ingestion report.

    A census line (``3 issue(s): 1 bad-cell, 2 skipped-row``)
    followed by one indented line per issue, so a report built from
    imperfect data carries its caveats with it.  Empty input renders
    the all-clear line.
    """
    lines = [f"data quality: {issue_summary(issues)}"]
    lines.extend(f"  - {issue.render()}" for issue in issues)
    return "\n".join(lines)


def render_comparison_table(title: str, rows: Sequence[ComparisonRow]) -> str:
    """Render a paper-vs-measured table for EXPERIMENTS.md."""
    header = (
        f"{'row':<30s} {'n_avg paper':>12s} {'n_avg ours':>11s} "
        f"{'speedup paper':>14s} {'speedup ours':>13s}  verdict"
    )
    lines = [title, header, "-" * len(header)]
    for row in rows:
        paper_s = f"{row.paper_speedup:.2f}x" if row.paper_speedup else "-"
        ours_s = f"{row.measured_speedup:.2f}x" if row.measured_speedup else "-"
        verdict = "agree" if row.agrees else "DISAGREE"
        lines.append(
            f"{row.label:<30s} {row.paper_n_avg:>12.2f} {row.measured_n_avg:>11.2f} "
            f"{paper_s:>14s} {ours_s:>13s}  {verdict}"
        )
    return "\n".join(lines)
