"""E-A1: ablation — how robust is the recipe's 100% score?

Two perturbations of the design choices DESIGN.md calls out, both
implemented in :mod:`repro.experiments.ablation`:

* **threshold sweep**: vary the FULL/NEAR-FULL occupancy thresholds and
  the bandwidth-saturation threshold, re-scoring all 37 rows at each
  setting — the chosen operating point (0.95/0.82/0.93) must sit on a
  plateau, not a knife edge;
* **latency-curve perturbation**: scale every machine's loaded-latency
  curve by ±10% (miscalibrated X-Mem) and confirm the row verdicts are
  largely insensitive — the method's portability claim depends on it.
"""

import pytest

from repro.experiments.ablation import (
    DEFAULT_THRESHOLDS,
    latency_curve_perturbation,
    threshold_sweep,
)


def test_threshold_plateau(benchmark, printed):
    scores = benchmark(threshold_sweep)
    if "ablation-thresholds" not in printed:
        printed.add("ablation-thresholds")
        print(f"\n{'full':>6s} {'near':>6s} {'sat':>6s}   accuracy (excl. exceptions)")
        for (full, near, sat), score in scores.items():
            print(
                f"{full:>6.2f} {near:>6.2f} {sat:>6.2f}   "
                f"{score.accuracy:.0%} "
                f"({score.agreeing} agree, "
                f"{score.unexplained_disagreements} disagree)"
            )
    assert scores[DEFAULT_THRESHOLDS].unexplained_disagreements == 0
    # Neighbouring settings lose at most a few rows: a plateau.
    for score in scores.values():
        assert score.accuracy >= 0.90


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_latency_curve_perturbation(benchmark, printed, scale):
    result = benchmark.pedantic(
        latency_curve_perturbation, args=(scale,), rounds=1, iterations=1
    )
    key = f"ablation-curve-{scale}"
    if key not in printed:
        printed.add(key)
        print(
            f"\nlatency curves x{scale}: recipe verdicts stable on "
            f"{result.stable_rows}/{result.total_rows} rows "
            f"({result.stability:.0%})"
        )
    assert result.stability >= 0.9  # tolerates 10% miscalibration
