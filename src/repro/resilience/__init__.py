"""Fault injection and degraded-mode accounting.

The pipeline's on-disk caches, trace files and external counter data
fail in characteristic ways; this package makes each failure path
exercisable and accountable:

* :mod:`repro.resilience.faults` — seeded fault *injection*
  (``REPRO_FAULTS``): corrupt cache/trace files, drop or NaN counter
  samples, plant simulator bugs only the sanitizer can see — every
  failure path exercisable on demand, byte-for-byte reproducibly;
* :mod:`repro.resilience.quality` — :class:`DataQualityIssue`, the unit
  of degraded-mode ingestion accounting.

An interrupted sweep needs no machinery of its own: every simulation
is stored in the content-addressed sim cache (:mod:`repro.perf.cache`),
so rerunning the command resumes it.  See ``docs/ROBUSTNESS.md`` for
the operational guide.
"""

from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultRule,
    configure_faults,
    get_injector,
    parse_fault_spec,
)
from .quality import DataQualityIssue, issue_summary

__all__ = [
    "DataQualityIssue",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultRule",
    "configure_faults",
    "get_injector",
    "issue_summary",
    "parse_fault_spec",
]
