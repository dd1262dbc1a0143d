"""Machine-readable export of the reproduction results.

Serializes the table/figure reproductions into plain dicts (and JSON),
so downstream tooling — plotting scripts, CI dashboards, regression
trackers — can consume the paper-vs-measured data without scraping the
text reports.  ``repro reproduce --json out.json`` uses this.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from .figure1 import figure1_from_tables
from .figure2 import reproduce_figure2
from .harness import TableReproduction, reproduce_all_tables


def table_to_dict(table: TableReproduction) -> Dict[str, Any]:
    """One case-study table as a plain dict."""
    rows = []
    for comparison in table.comparisons:
        result = comparison.result
        rows.append(
            {
                "machine": result.machine,
                "source": result.source_label,
                "step": result.step,
                "measured": {
                    "bw_gbs": round(result.bw_gbs, 2),
                    "latency_ns": round(result.latency_ns, 1),
                    "n_avg": round(result.n_avg, 3),
                    "speedup": (
                        round(result.speedup, 3) if result.speedup else None
                    ),
                },
                "paper": {
                    "bw_gbs": comparison.paper.bw_gbs,
                    "latency_ns": comparison.paper.lat_ns,
                    "n_avg": comparison.paper.n_avg,
                    "speedup": comparison.paper.speedup,
                },
                "checks": {
                    "n_avg_ok": comparison.n_avg_ok,
                    "bw_ok": comparison.bw_ok,
                    "speedup_ok": comparison.speedup_ok,
                    "recipe_ok": comparison.recipe_ok,
                    "known_exception": comparison.known_exception,
                    "all_ok": comparison.all_ok,
                },
            }
        )
    return {
        "workload": table.workload,
        "table": table.table_number,
        "rows_ok": table.rows_ok,
        "rows_total": len(table.comparisons),
        "rows": rows,
    }


def full_reproduction_dict() -> Dict[str, Any]:
    """Everything: all six tables plus both figures.

    The tables are reproduced once; Figure 1 is read off them.
    """
    tables = reproduce_all_tables()
    fig1 = figure1_from_tables(tables)
    fig2 = reproduce_figure2()
    return {
        "tables": {name: table_to_dict(table) for name, table in tables.items()},
        "figures": {
            "figure1": {
                "total_rows": fig1.total,
                "agreeing": fig1.agreeing,
                "known_exceptions": fig1.known_exceptions,
                "unexplained_disagreements": fig1.unexplained_disagreements,
                "accuracy": fig1.accuracy,
            },
            "figure2": {
                "peak_bw_gbs": fig2.extended.roofline.peak_bw_gbs,
                "peak_gflops": fig2.extended.roofline.peak_gflops,
                "l1_ceiling_bw_gbs": round(fig2.l1_ceiling_bw_gbs, 1),
                "base_pinned_by_ceiling": fig2.base_pinned_by_ceiling,
                "optimized_breaks_ceiling": fig2.optimized_breaks_ceiling,
                "series": [
                    {
                        "intensity": round(x, 4),
                        "classic_gflops": round(classic, 2),
                        "extended_gflops": round(extended, 2),
                    }
                    for x, classic, extended in fig2.series
                ],
            },
        },
    }


def export_json(path: Optional[str] = None, *, indent: int = 2) -> str:
    """Serialize the full reproduction; optionally write it to ``path``."""
    text = json.dumps(full_reproduction_dict(), indent=indent)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
