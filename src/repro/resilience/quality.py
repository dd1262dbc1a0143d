"""Structured data-quality accounting for degraded-mode ingestion.

Real counter dumps arrive with skipped rows, missing events, and NaN
readings; the HPM literature's advice is to *report and widen*, not
die.  A :class:`DataQualityIssue` is the unit of that reporting: each
lenient ingestion path (:func:`repro.io.measurements.from_csv_degraded`,
:meth:`repro.counters.session.CounterSession.bandwidth_with_quality`)
appends one per problem instead of raising, and the analysis layer
(:func:`repro.core.uncertainty.quality_widened_errors`) converts the
issue census into a wider — honest — error bar on ``n_avg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["DataQualityIssue", "issue_summary"]


@dataclass(frozen=True)
class DataQualityIssue:
    """One ingestion problem that was survived rather than fatal.

    ``kind`` is a stable machine-readable tag (``skipped-row`` and
    ``bad-cell`` from CSV ingestion, ``missing-counter`` and
    ``nan-counter`` from counter reads); ``location`` pins it to a
    source coordinate (``line 7``, an event name); ``detail`` is the
    human-readable explanation.
    """

    kind: str
    location: str
    detail: str

    def render(self) -> str:
        """``kind @ location: detail`` one-liner."""
        return f"{self.kind} @ {self.location}: {self.detail}"


def issue_summary(issues: Sequence[DataQualityIssue]) -> str:
    """Compact census line, e.g. ``3 issue(s): 1 bad-cell, 2 skipped-row``."""
    if not issues:
        return "no data-quality issues"
    counts: dict = {}
    for issue in issues:
        counts[issue.kind] = counts.get(issue.kind, 0) + 1
    parts: List[str] = [
        f"{count} {kind}" for kind, count in sorted(counts.items())
    ]
    return f"{len(issues)} issue(s): " + ", ".join(parts)
