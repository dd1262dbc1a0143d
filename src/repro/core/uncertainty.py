"""Measurement-uncertainty propagation for the MLP metric.

The paper's n_avg is derived, not counted, so its error budget matters:

    n = BW * lat(BW) / cls / cores

Two error sources propagate into it:

* **counter error** on the observed bandwidth (vendors document a few
  percent; the paper cites outright-broken FLOP counters [3]), which
  enters twice — directly, and through the latency lookup's local
  slope;
* **profile error** on the X-Mem curve itself (measurement noise,
  admission-queueing bias).

First-order propagation:

    dn/n = dBW/BW * (1 + S)  +  dlat/lat

where ``S = (BW/lat) * d lat/d BW`` is the profile's local elasticity —
small on the flat part of the curve, large near the saturation knee.
:func:`mlp_uncertainty` evaluates this, and
:func:`decision_is_robust` answers the operational question: could the
measurement error flip the recipe's full-vs-headroom verdict?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..resilience.quality import DataQualityIssue
from .mlp import MlpCalculator, MlpResult
from .recipe import FULL_RATIO, NEAR_FULL_RATIO

#: Extra relative bandwidth error charged per surviving data-quality
#: issue in degraded-mode ingestion (on top of the base counter error).
QUALITY_ERROR_PER_ISSUE = 0.01

#: Ceiling on the quality widening: beyond this the data is unusable
#: and the verdict column will say so anyway.
QUALITY_ERROR_CAP = 0.25


@dataclass(frozen=True)
class MlpUncertainty:
    """n_avg with its first-order error bar."""

    result: MlpResult
    bandwidth_rel_error: float
    latency_rel_error: float
    elasticity: float
    n_avg_rel_error: float

    @property
    def n_avg_low(self) -> float:
        """Lower edge of the n_avg error bar."""
        return self.result.n_avg * (1.0 - self.n_avg_rel_error)

    @property
    def n_avg_high(self) -> float:
        """Upper edge of the n_avg error bar."""
        return self.result.n_avg * (1.0 + self.n_avg_rel_error)

    def render(self) -> str:
        """One-line n_avg +/- error summary."""
        return (
            f"n_avg = {self.result.n_avg:.2f} "
            f"± {self.n_avg_rel_error:.0%} "
            f"[{self.n_avg_low:.2f}, {self.n_avg_high:.2f}] "
            f"(curve elasticity {self.elasticity:.2f})"
        )


def profile_elasticity(
    calculator: MlpCalculator, bandwidth_bytes: float, *, delta: float = 0.01
) -> float:
    """Local elasticity S = (BW/lat) * dlat/dBW of the latency curve."""
    if bandwidth_bytes <= 0:
        return 0.0
    lo = calculator.calculate(bandwidth_bytes * (1.0 - delta))
    hi = calculator.calculate(
        min(
            bandwidth_bytes * (1.0 + delta),
            calculator.profile.max_measured_bw_bytes,
        )
    )
    dlat = hi.latency_ns - lo.latency_ns
    dbw = hi.bandwidth_bytes - lo.bandwidth_bytes
    if dbw <= 0:
        return 0.0
    lat = calculator.calculate(bandwidth_bytes).latency_ns
    return (bandwidth_bytes / lat) * (dlat / dbw)


def mlp_uncertainty(
    machine: MachineSpec,
    bandwidth_bytes: float,
    *,
    bandwidth_rel_error: float = 0.03,
    latency_rel_error: float = 0.05,
    profile: Optional[LatencyProfile] = None,
) -> MlpUncertainty:
    """n_avg with a first-order error bar for one measurement.

    Defaults: 3 % counter error (typical of documented counter quality)
    and 5 % profile error (X-Mem run-to-run spread).
    """
    if bandwidth_rel_error < 0 or latency_rel_error < 0:
        raise ConfigurationError("relative errors must be >= 0")
    calculator = MlpCalculator(machine, profile)
    result = calculator.calculate(bandwidth_bytes)
    elasticity = profile_elasticity(calculator, bandwidth_bytes)
    n_error = bandwidth_rel_error * (1.0 + elasticity) + latency_rel_error
    return MlpUncertainty(
        result=result,
        bandwidth_rel_error=bandwidth_rel_error,
        latency_rel_error=latency_rel_error,
        elasticity=elasticity,
        n_avg_rel_error=n_error,
    )


def quality_widened_errors(
    issues: Sequence[DataQualityIssue],
    *,
    bandwidth_rel_error: float = 0.03,
    latency_rel_error: float = 0.05,
) -> Tuple[float, float]:
    """Widen the error budget to reflect degraded-mode ingestion.

    Every :class:`~repro.resilience.quality.DataQualityIssue` that
    survived ingestion (skipped rows, bad cells, missing or NaN counters)
    adds :data:`QUALITY_ERROR_PER_ISSUE` to the *bandwidth* relative
    error — the side the degraded counters actually feed — capped at
    :data:`QUALITY_ERROR_CAP`; the profile error is untouched.  Returns
    ``(bandwidth_rel_error, latency_rel_error)`` ready for
    :func:`mlp_uncertainty`: honest bars instead of silent optimism.
    """
    if bandwidth_rel_error < 0 or latency_rel_error < 0:
        raise ConfigurationError("relative errors must be >= 0")
    widening = min(QUALITY_ERROR_CAP, QUALITY_ERROR_PER_ISSUE * len(issues))
    return bandwidth_rel_error + widening, latency_rel_error


def analytic_widened_errors(
    *,
    bandwidth_rel_error: float = 0.03,
    latency_rel_error: float = 0.05,
) -> Tuple[float, float]:
    """Widen the error budget for answers from the ``--fast`` closed form.

    The analytic queueing model trades simulation time for a documented
    model error: the cross-validated worst-case deviations
    (:data:`~repro.perfmodel.queueing.ANALYTIC_BW_ERROR_BOUND` /
    :data:`~repro.perfmodel.queueing.ANALYTIC_LAT_ERROR_BOUND`) are
    added to the respective budgets so ``--fast`` verdicts carry error
    bars that cover the shortcut, not just the counters.  Returns
    ``(bandwidth_rel_error, latency_rel_error)`` ready for
    :func:`mlp_uncertainty` — the exact shape of
    :func:`quality_widened_errors`, for the analytic failure mode.
    """
    if bandwidth_rel_error < 0 or latency_rel_error < 0:
        raise ConfigurationError("relative errors must be >= 0")
    # Imported here: repro.core <-> repro.perfmodel is a package cycle
    # at init time (advisor imports the runtime model).
    from ..perfmodel.queueing import (
        ANALYTIC_BW_ERROR_BOUND,
        ANALYTIC_LAT_ERROR_BOUND,
    )

    return (
        bandwidth_rel_error + ANALYTIC_BW_ERROR_BOUND,
        latency_rel_error + ANALYTIC_LAT_ERROR_BOUND,
    )


def decision_is_robust(
    uncertainty: MlpUncertainty, machine: MachineSpec, binding_level: int
) -> bool:
    """Could the error bar flip the recipe's occupancy verdict?

    Returns True when the whole [low, high] interval lands in the same
    FULL / NEAR-FULL / HEADROOM band; False means "re-measure before
    acting" — operational advice the raw recipe cannot give.
    """
    limit = machine.mshr_limit(binding_level)

    def band(n: float) -> int:
        ratio = n / limit
        if ratio >= FULL_RATIO:
            return 2
        if ratio >= NEAR_FULL_RATIO:
            return 1
        return 0

    return band(uncertainty.n_avg_low) == band(uncertainty.n_avg_high)
