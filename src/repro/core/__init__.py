"""The paper's contribution: Little's-law MLP analysis and the recipe."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .advisor import Advisor, AdvisorResult, AdvisorStep, KEEP_THRESHOLD
    from .analyzer import AnalysisReport, RoutineAnalyzer, STATIONARITY_SPREAD
    from .classify import (
        AccessPattern,
        Classification,
        RANDOM_THRESHOLD,
        STREAMING_THRESHOLD,
        classify_from_prefetch_fraction,
    )
    from .littles_law import (
        bandwidth_from_mlp,
        latency_from_mlp,
        mlp_from_bandwidth,
    )
    from .mlp import MlpCalculator, MlpResult
    from .optimizations import (
        CATALOG,
        OptimizationInfo,
        OptimizationKind,
        info,
    )
    from .recipe import (
        BW_SATURATED_RATIO,
        Benefit,
        FULL_RATIO,
        NEAR_FULL_RATIO,
        OccupancyStatus,
        Recipe,
        RecipeContext,
        RecipeDecision,
        Recommendation,
    )
    from .report import (
        CaseStudyRow,
        ComparisonRow,
        render_case_study_table,
        render_comparison_table,
        render_data_quality,
    )
    from .sweep import (
        HeadroomCell,
        headroom_map,
        render_headroom_map,
    )
    from .uncertainty import (
        MlpUncertainty,
        decision_is_robust,
        mlp_uncertainty,
        profile_elasticity,
        quality_widened_errors,
    )

__all__ = [
    "AccessPattern",
    "Advisor",
    "AdvisorResult",
    "AdvisorStep",
    "KEEP_THRESHOLD",
    "AnalysisReport",
    "BW_SATURATED_RATIO",
    "Benefit",
    "CATALOG",
    "CaseStudyRow",
    "Classification",
    "ComparisonRow",
    "FULL_RATIO",
    "MlpCalculator",
    "MlpResult",
    "NEAR_FULL_RATIO",
    "OccupancyStatus",
    "OptimizationInfo",
    "OptimizationKind",
    "RANDOM_THRESHOLD",
    "Recipe",
    "RecipeContext",
    "RecipeDecision",
    "Recommendation",
    "RoutineAnalyzer",
    "STATIONARITY_SPREAD",
    "STREAMING_THRESHOLD",
    "bandwidth_from_mlp",
    "classify_from_prefetch_fraction",
    "HeadroomCell",
    "headroom_map",
    "render_headroom_map",
    "info",
    "latency_from_mlp",
    "MlpUncertainty",
    "decision_is_robust",
    "mlp_from_bandwidth",
    "mlp_uncertainty",
    "profile_elasticity",
    "quality_widened_errors",
    "render_case_study_table",
    "render_comparison_table",
    "render_data_quality",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "advisor": (
            "Advisor",
            "AdvisorResult",
            "AdvisorStep",
            "KEEP_THRESHOLD",
        ),
        "analyzer": (
            "AnalysisReport",
            "RoutineAnalyzer",
            "STATIONARITY_SPREAD",
        ),
        "classify": (
            "AccessPattern",
            "Classification",
            "RANDOM_THRESHOLD",
            "STREAMING_THRESHOLD",
            "classify_from_prefetch_fraction",
        ),
        "littles_law": (
            "bandwidth_from_mlp",
            "latency_from_mlp",
            "mlp_from_bandwidth",
        ),
        "mlp": (
            "MlpCalculator",
            "MlpResult",
        ),
        "optimizations": (
            "CATALOG",
            "OptimizationInfo",
            "OptimizationKind",
            "info",
        ),
        "recipe": (
            "BW_SATURATED_RATIO",
            "Benefit",
            "FULL_RATIO",
            "NEAR_FULL_RATIO",
            "OccupancyStatus",
            "Recipe",
            "RecipeContext",
            "RecipeDecision",
            "Recommendation",
        ),
        "report": (
            "CaseStudyRow",
            "ComparisonRow",
            "render_case_study_table",
            "render_comparison_table",
            "render_data_quality",
        ),
        "sweep": (
            "HeadroomCell",
            "headroom_map",
            "render_headroom_map",
        ),
        "uncertainty": (
            "MlpUncertainty",
            "decision_is_robust",
            "mlp_uncertainty",
            "profile_elasticity",
            "quality_widened_errors",
        ),
    },
)
