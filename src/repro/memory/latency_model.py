"""Loaded-latency models: latency as a function of bandwidth utilization.

The paper's method hinges on *loaded* memory latency — "the observed
latency increases as bandwidth utilization increases and can be 2x or
more than the idle latency at peak bandwidth utilization" (Section
III-B).  :class:`TabulatedLatencyModel` is the one model class: monotone
piecewise-linear interpolation through calibration control points.  Every
machine carries its control points (:mod:`repro.machines` fitted them to
every (bandwidth, latency) pair the paper quotes), so the simulator's
memory controller, the X-Mem substitute, and the analytic solver all see
one curve per machine.

:class:`LatencyModel` is the protocol the curve satisfies, and so do the
calibrated :class:`~repro.perfmodel.queueing.QueueingParams`:
``latency_ns(utilization)`` with utilization a fraction of theoretical
peak bandwidth in ``[0, 1]``.  The tabulated model clamps queries
slightly above 1 (counter jitter on real systems produces >100 %
readings), but far out-of-range queries raise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, Sequence, Tuple

import numpy as np

from ..errors import ProfileDomainError, ProfileError

#: Queries up to this utilization are clamped to 1.0 rather than rejected.
_CLAMP_LIMIT = 1.05


class LatencyModel(Protocol):
    """Anything that maps bandwidth utilization to loaded latency (ns)."""

    @property
    def idle_latency_ns(self) -> float:
        """Latency at zero load."""
        ...

    def latency_ns(self, utilization: float) -> float:
        """Loaded latency in ns at ``utilization`` in ``[0, 1]``."""
        ...


def interp_scalar(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """``float(np.interp(x, xp, fp))`` for one finite ``x``, in pure Python.

    Replays numpy's compiled per-element step, so the result is
    bit-identical while skipping the array round trip: flat ``fp[0]`` /
    ``fp[-1]`` outside ``[xp[0], xp[-1]]``, the breakpoint value itself
    at ``x == xp[j]``, otherwise ``slope * (x - xp[j]) + fp[j]`` with
    ``slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j])``, retried from the
    right-hand point when that is NaN (an overflowed slope times zero).
    ``xp`` must be strictly increasing.
    """
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1:
        return fp[j]
    x0 = xp[j]
    y0 = fp[j]
    if x == x0:
        return y0
    x1 = xp[j + 1]
    y1 = fp[j + 1]
    slope = (y1 - y0) / (x1 - x0)
    value = slope * (x - x0) + y0
    if value != value:
        value = slope * (x - x1) + y1
        if value != value and y0 == y1:
            value = y0
    return value


def _check_utilization(utilization: float) -> float:
    if 0.0 <= utilization <= 1.0:
        return utilization  # the common case, and NaN fails it
    if not math.isfinite(utilization):
        raise ProfileDomainError(f"utilization must be finite, got {utilization}")
    if utilization < 0.0:
        raise ProfileDomainError(f"utilization must be >= 0, got {utilization}")
    if utilization > _CLAMP_LIMIT:
        raise ProfileDomainError(
            f"utilization {utilization:.3f} exceeds clamp limit {_CLAMP_LIMIT}"
        )
    return min(utilization, 1.0)


def _check_utilization_batch(utilization: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_check_utilization`: validate and clamp a vector."""
    if not np.isfinite(utilization).all():
        bad = utilization[~np.isfinite(utilization)][0]
        raise ProfileDomainError(f"utilization must be finite, got {bad}")
    if (utilization < 0.0).any():
        bad = float(utilization[utilization < 0.0][0])
        raise ProfileDomainError(f"utilization must be >= 0, got {bad}")
    if (utilization > _CLAMP_LIMIT).any():
        bad = float(utilization[utilization > _CLAMP_LIMIT][0])
        raise ProfileDomainError(
            f"utilization {bad:.3f} exceeds clamp limit {_CLAMP_LIMIT}"
        )
    return np.minimum(utilization, 1.0)


@dataclass(frozen=True)
class TabulatedLatencyModel:
    """Monotone piecewise-linear latency curve through control points.

    Parameters
    ----------
    points:
        ``(utilization, latency_ns)`` pairs.  They are sorted on
        construction; utilizations must be unique, latencies must be
        non-decreasing in utilization (a loaded-latency curve never
        improves under load).
    """

    points: Tuple[Tuple[float, float], ...]

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ProfileError("need at least two calibration points")
        ordered = sorted((float(u), float(l)) for u, l in points)
        utils = [u for u, _ in ordered]
        if len(set(utils)) != len(utils):
            raise ProfileError("duplicate utilization points in calibration")
        # Merge points spaced closer than float-safe interpolation allows
        # (a near-vertical segment overflows np.interp's slope); keep the
        # higher latency so monotonicity is preserved.
        merged = [ordered[0]]
        for u, lat in ordered[1:]:
            if u - merged[-1][0] < 1e-9:
                merged[-1] = (merged[-1][0], max(merged[-1][1], lat))
            else:
                merged.append((u, lat))
        if len(merged) < 2:
            raise ProfileError("calibration points collapse to a single point")
        ordered = tuple(merged)
        utils = [u for u, _ in ordered]
        lats = [l for _, l in ordered]
        if any(u < 0.0 or u > _CLAMP_LIMIT for u in utils):
            raise ProfileError("calibration utilizations must lie in [0, 1.05]")
        if any(l <= 0.0 for l in lats):
            raise ProfileError("calibration latencies must be positive")
        if any(b < a for a, b in zip(lats, lats[1:])):
            raise ProfileError("loaded latency must be non-decreasing in load")
        object.__setattr__(self, "points", ordered)

    # The breakpoint columns are split once, not per lookup.  Cached
    # properties rather than fields: equality, repr and cache-key
    # canonicalization still see only ``points``.

    @cached_property
    def _utils(self) -> Tuple[float, ...]:
        return tuple(u for u, _ in self.points)

    @cached_property
    def _lats(self) -> Tuple[float, ...]:
        return tuple(lat for _, lat in self.points)

    @property
    def idle_latency_ns(self) -> float:
        """Latency at the lowest calibrated load (extrapolated flat to 0)."""
        return self.points[0][1]

    @property
    def saturated_latency_ns(self) -> float:
        """Latency at the highest calibrated load."""
        return self.points[-1][1]

    def latency_ns(self, utilization: float) -> float:
        """Interpolated loaded latency at ``utilization``."""
        u = _check_utilization(utilization)
        lats = self._lats
        value = interp_scalar(u, self._utils, lats)
        # The interpolation is flat outside the domain, which is the
        # right behaviour at both ends (idle below, saturated above).
        # This clamp, min(max(value, lats[0]), lats[-1]) spelled out,
        # guards against float-overflow artifacts when control points
        # are pathologically close together: physically the value must
        # lie within the calibrated range.
        if lats[0] > value:
            value = lats[0]
        if lats[-1] < value:
            value = lats[-1]
        return value

    def latency_ns_batch(self, utilization: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`latency_ns`, elementwise bit-identical.

        ``np.interp`` evaluates each element with the compiled step that
        :func:`interp_scalar` replays, and ``np.clip`` performs the
        identical ``min(max(...))`` pair, so ``latency_ns_batch(u)[i] ==
        latency_ns(u[i])`` bit-for-bit.  Used by the batched miss fast
        path, which plans a whole run of admissions at once: one
        vectorized call replaces a Python-level loop of scalar lookups.
        """
        u = _check_utilization_batch(utilization)
        utils = np.array(self._utils)
        lats = np.array(self._lats)
        return np.clip(np.interp(u, utils, lats), lats[0], lats[-1])


def model_for_machine(machine) -> TabulatedLatencyModel:
    """The latency curve of a :class:`~repro.machines.MachineSpec`.

    Built from the machine's calibration points, which the spec already
    validated; its ``idle_latency_ns`` is the machine's idle latency.
    """
    return TabulatedLatencyModel(machine.latency_calibration)
