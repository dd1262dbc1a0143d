"""Analytic performance model: fixed-point solver, the ``--fast`` path,
and case-study driver."""

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
