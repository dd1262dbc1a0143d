"""Analytic performance model: fixed-point solver, the ``--fast`` path,
and case-study driver."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .casestudy import (
        SPEEDUP_HELPED,
        CaseStudyResult,
        CaseStudyRunner,
        run_case_study,
    )
    from .queueing import (
        FastPathDecision,
        analytic_profile,
        calibrate_from_probes,
        solve_operating_point_fast,
        state_eligibility,
        trace_eligibility,
    )
    from .runtime import RuntimeModel, RuntimePrediction
    from .solver import SolvedPoint, solve_operating_point

__all__ = [
    "CaseStudyResult",
    "CaseStudyRunner",
    "FastPathDecision",
    "RuntimeModel",
    "RuntimePrediction",
    "SPEEDUP_HELPED",
    "SolvedPoint",
    "analytic_profile",
    "calibrate_from_probes",
    "run_case_study",
    "solve_operating_point",
    "solve_operating_point_fast",
    "state_eligibility",
    "trace_eligibility",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "casestudy": (
            "SPEEDUP_HELPED",
            "CaseStudyResult",
            "CaseStudyRunner",
            "run_case_study",
        ),
        "queueing": (
            "FastPathDecision",
            "analytic_profile",
            "calibrate_from_probes",
            "solve_operating_point_fast",
            "state_eligibility",
            "trace_eligibility",
        ),
        "runtime": (
            "RuntimeModel",
            "RuntimePrediction",
        ),
        "solver": (
            "SolvedPoint",
            "solve_operating_point",
        ),
    },
)
