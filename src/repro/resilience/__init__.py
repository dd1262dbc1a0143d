"""Sim-cache fault injection and degraded-mode accounting.

* :mod:`repro.resilience.faults` — seeded corruption of sim-cache
  entries (``REPRO_FAULTS``), so the cache's quarantine-and-resimulate
  path stays exercised; imported only by :mod:`repro.perf.cache`;
* :mod:`repro.resilience.quality` — :class:`DataQualityIssue`, the unit
  of degraded-mode ingestion accounting.

An interrupted sweep needs no machinery of its own: every simulation
is stored in the content-addressed sim cache (:mod:`repro.perf.cache`),
so rerunning the command resumes it.  See ``docs/ROBUSTNESS.md`` for
the operational guide.
"""

from .quality import DataQualityIssue, issue_summary

__all__ = ["DataQualityIssue", "issue_summary"]
