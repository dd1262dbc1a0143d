"""Experiment harnesses: one per paper table/figure (see DESIGN.md §4)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .ablation import (
        DEFAULT_THRESHOLDS,
        PerturbationResult,
        PrefetchDistancePoint,
        latency_curve_perturbation,
        prefetch_distance_sweep,
        scaled_latency_curves,
        threshold_sweep,
    )
    from .analytic_crossval import (
        AnalyticCrossValRow,
        crossval_analytic,
        render_analytic_crossval,
        table_ok,
    )
    from .cross_validation import (
        CrossValidationRow,
        cross_validate,
        render_cross_validation,
    )
    from .figure1 import (
        DecisionTrace,
        Figure1Reproduction,
        figure1_from_tables,
        reproduce_figure1,
    )
    from .figure2 import Figure2Reproduction, reproduce_figure2
    from .harness import (
        BW_TOLERANCE,
        KNOWN_EXCEPTIONS,
        N_AVG_TOLERANCE,
        RowComparison,
        SPEEDUP_TOLERANCE,
        TableReproduction,
        reproduce_all_tables,
        reproduce_table,
    )
    from .intro_snap import (
        IntroSnapReproduction,
        LatencyCounterDemo,
        reproduce_intro_snap,
        reproduce_latency_counter_demo,
    )
    from .paperdata import (
        CASE_STUDY_TABLES,
        FIGURE2,
        INTRO_SNAP,
        TABLE_NUMBER,
        PaperRow,
        rows_for,
    )
    from .smt_contention import (
        ContentionResult,
        contention_survey,
        measure_contention,
    )
    from .stall_validation import StallMigration, reproduce_stall_migration
    from .tables import (
        StructuralCheck,
        check_table1,
        check_table2,
        check_table3,
    )

__all__ = [
    "AnalyticCrossValRow",
    "BW_TOLERANCE",
    "DEFAULT_THRESHOLDS",
    "crossval_analytic",
    "render_analytic_crossval",
    "table_ok",
    "PerturbationResult",
    "PrefetchDistancePoint",
    "ContentionResult",
    "contention_survey",
    "measure_contention",
    "CrossValidationRow",
    "cross_validate",
    "render_cross_validation",
    "latency_curve_perturbation",
    "prefetch_distance_sweep",
    "scaled_latency_curves",
    "threshold_sweep",
    "CASE_STUDY_TABLES",
    "DecisionTrace",
    "FIGURE2",
    "Figure1Reproduction",
    "Figure2Reproduction",
    "INTRO_SNAP",
    "IntroSnapReproduction",
    "KNOWN_EXCEPTIONS",
    "LatencyCounterDemo",
    "N_AVG_TOLERANCE",
    "PaperRow",
    "RowComparison",
    "SPEEDUP_TOLERANCE",
    "StallMigration",
    "StructuralCheck",
    "TABLE_NUMBER",
    "TableReproduction",
    "check_table1",
    "check_table2",
    "check_table3",
    "figure1_from_tables",
    "reproduce_all_tables",
    "reproduce_figure1",
    "reproduce_figure2",
    "reproduce_intro_snap",
    "reproduce_latency_counter_demo",
    "reproduce_stall_migration",
    "reproduce_table",
    "rows_for",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "ablation": (
            "DEFAULT_THRESHOLDS",
            "PerturbationResult",
            "PrefetchDistancePoint",
            "latency_curve_perturbation",
            "prefetch_distance_sweep",
            "scaled_latency_curves",
            "threshold_sweep",
        ),
        "analytic_crossval": (
            "AnalyticCrossValRow",
            "crossval_analytic",
            "render_analytic_crossval",
            "table_ok",
        ),
        "cross_validation": (
            "CrossValidationRow",
            "cross_validate",
            "render_cross_validation",
        ),
        "figure1": (
            "DecisionTrace",
            "Figure1Reproduction",
            "figure1_from_tables",
            "reproduce_figure1",
        ),
        "figure2": (
            "Figure2Reproduction",
            "reproduce_figure2",
        ),
        "harness": (
            "BW_TOLERANCE",
            "KNOWN_EXCEPTIONS",
            "N_AVG_TOLERANCE",
            "RowComparison",
            "SPEEDUP_TOLERANCE",
            "TableReproduction",
            "reproduce_all_tables",
            "reproduce_table",
        ),
        "intro_snap": (
            "IntroSnapReproduction",
            "LatencyCounterDemo",
            "reproduce_intro_snap",
            "reproduce_latency_counter_demo",
        ),
        "paperdata": (
            "CASE_STUDY_TABLES",
            "FIGURE2",
            "INTRO_SNAP",
            "TABLE_NUMBER",
            "PaperRow",
            "rows_for",
        ),
        "smt_contention": (
            "ContentionResult",
            "contention_survey",
            "measure_contention",
        ),
        "stall_validation": (
            "StallMigration",
            "reproduce_stall_migration",
        ),
        "tables": (
            "StructuralCheck",
            "check_table1",
            "check_table2",
            "check_table3",
        ),
    },
)
