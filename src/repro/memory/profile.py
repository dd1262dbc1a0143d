"""Loaded-latency curves: the paper's once-per-machine profile.

The paper's method hinges on *loaded* memory latency — "the observed
latency increases as bandwidth utilization increases and can be 2x or
more than the idle latency at peak bandwidth utilization" (Section
III-B).  Given any routine's observed bandwidth, Eq. 2 reads
``lat(BW_obs)`` off one such curve per machine.

:class:`LatencyProfile` is the one curve class: monotone
piecewise-linear interpolation through ``(utilization, latency_ns)``
points, utilization being a fraction of the machine's theoretical peak
bandwidth.  Its instances differ only in where the points came from
(``source``):

* ``"calibration"`` — the machine's calibrated curve, fitted to every
  (bandwidth, latency) pair the paper quotes and built once per
  :class:`~repro.machines.MachineSpec` as ``machine.latency_model``.
  The simulator's memory controller, the operating-point solver and
  the default Eq. 2 analyzer all read this object;
* ``"xmem"`` / ``"probes"`` — measured by the X-Mem substitute
  (:mod:`repro.xmem`) sweeping load through the simulated memory
  controller, the paper's actual workflow, or by ``--fast``'s five
  probes;
* ``"analytic"`` — a curve resampled by ``characterize --fast``.

Queries may overshoot the top point by up to 5 % (counter jitter on
real systems produces >100 % readings) and read its latency; farther
out raises :class:`~repro.errors.ProfileDomainError`.  Profiles can be
saved/loaded as JSON so the "computed once per processor" property
(paper footnote 2) holds across sessions.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Tuple, Union

from ..errors import ProfileDomainError, ProfileError

if TYPE_CHECKING:
    import numpy as np

#: Highest utilization a curve point may sit at.
MAX_UTILIZATION = 1.05

#: Queries up to this factor above the top point read the top latency;
#: farther out is outside the curve's domain.
OVERSHOOT = 1.05

#: One chord of a curve, ``(u0, u1, a, q)``: on ``[u0, u1]`` the
#: latency is ``a + q*(u - u0)``.
Segment = Tuple[float, float, float, float]


@dataclass(frozen=True)
class LatencyProfile:
    """Monotone piecewise-linear utilization → loaded-latency curve.

    Parameters
    ----------
    machine_name:
        Which machine this curve characterizes.
    peak_bw_bytes:
        Theoretical peak bandwidth; :meth:`latency_at` divides by it.
    points:
        ``(utilization, latency_ns)`` pairs, sorted on construction.
        Utilizations lie in ``[0, 1.05]`` and are unique; points closer
        than 1e-9 merge, keeping the higher latency.  Latencies are
        positive and non-decreasing (a loaded-latency curve never
        improves under load).
    source:
        Provenance: ``"calibration"``, ``"xmem"``, ``"probes"`` or
        ``"analytic"``.
    """

    machine_name: str
    peak_bw_bytes: float
    points: Tuple[Tuple[float, float], ...]
    source: str = "calibration"

    def __post_init__(self) -> None:
        if not self.peak_bw_bytes > 0:
            raise ProfileError("peak bandwidth must be positive")
        if len(self.points) < 2:
            raise ProfileError("need at least two curve points")
        ordered = sorted((float(u), float(lat)) for u, lat in self.points)
        utils = [u for u, _ in ordered]
        if len(set(utils)) != len(utils):
            raise ProfileError("duplicate utilization points in curve")
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
            raise ProfileError("curve points collapse to a single point")
        lats = [lat for _, lat in merged]
        if any(u < 0.0 or u > MAX_UTILIZATION for u, _ in merged):
            raise ProfileError("curve utilizations must lie in [0, 1.05]")
        if any(lat <= 0.0 for lat in lats):
            raise ProfileError("curve latencies must be positive")
        if any(b < a for a, b in zip(lats, lats[1:])):
            raise ProfileError("loaded latency must be non-decreasing in load")
        object.__setattr__(self, "points", tuple(merged))

    @classmethod
    def from_samples(
        cls,
        machine_name: str,
        peak_bw_bytes: float,
        samples: Sequence[Tuple[float, float]],
        *,
        source: str = "xmem",
    ) -> "LatencyProfile":
        """Build from raw ``(bandwidth_bytes, latency_ns)`` measurements.

        Measurement noise can produce locally non-monotone latencies; the
        samples are rectified with a running maximum (a loaded-latency
        curve is physically non-decreasing) before validation.
        """
        if not peak_bw_bytes > 0:
            raise ProfileError("peak bandwidth must be positive")
        points = []
        running = 0.0
        for bw, lat in sorted((float(b), float(l)) for b, l in samples):
            running = max(running, lat)
            points.append((bw / peak_bw_bytes, running))
        return cls(machine_name, peak_bw_bytes, tuple(points), source=source)

    # The columns, the domain and the chords are derived once, not
    # per query.  Cached properties rather than fields: equality, repr
    # and cache-key canonicalization still see only the fields.

    @cached_property
    def _utils(self) -> Tuple[float, ...]:
        return tuple(u for u, _ in self.points)

    @cached_property
    def _lats(self) -> Tuple[float, ...]:
        return tuple(lat for _, lat in self.points)

    @cached_property
    def _limit(self) -> float:
        return self.top_utilization * OVERSHOOT

    @cached_property
    def chords(self) -> Tuple[Segment, ...]:
        """The curve's segments, flat below its first and above its last
        point; the operating-point solver walks them."""
        points = self.points
        segments = [(0.0, points[0][0], points[0][1], 0.0)]
        for (u0, l0), (u1, l1) in zip(points, points[1:]):
            segments.append((u0, u1, l0, (l1 - l0) / (u1 - u0)))
        segments.append((points[-1][0], math.inf, points[-1][1], 0.0))
        return tuple(segments)

    # -- queries --------------------------------------------------------------

    @cached_property
    def top_utilization(self) -> float:
        """Utilization of the highest point."""
        return self.points[-1][0]

    @property
    def max_measured_bw_bytes(self) -> float:
        """Bandwidth of the highest point."""
        return self.points[-1][0] * self.peak_bw_bytes

    @property
    def idle_latency_ns(self) -> float:
        """Latency at the lowest point (extrapolated flat to 0)."""
        return self.points[0][1]

    def _check(self, utilization: float) -> float:
        """``utilization`` clamped to the top point, or a domain error."""
        if not math.isfinite(utilization):
            raise ProfileDomainError(f"utilization must be finite, got {utilization}")
        if utilization < 0.0:
            raise ProfileDomainError(f"utilization must be >= 0, got {utilization}")
        if utilization > self._limit:
            raise ProfileDomainError(
                f"utilization {utilization:.3f} exceeds the curve's domain "
                f"(top point {self.top_utilization:.3f})"
            )
        return self.top_utilization

    def latency_ns(self, utilization: float) -> float:
        """Interpolated loaded latency at ``utilization``.

        ``float(np.interp(u, utils, lats))`` in pure Python, bit for bit:
        it replays numpy's compiled per-element step without the array
        round trip.  That is the breakpoint value itself at ``u ==
        utils[j]``, otherwise ``slope * (u - utils[j]) + lats[j]`` with
        ``slope = (lats[j+1] - lats[j]) / (utils[j+1] - utils[j])``,
        retried from the right-hand point when that is NaN (two infinite
        latencies make the slope NaN); flat below the first point and at
        the top one.
        """
        u = utilization
        if not 0.0 <= u <= self.top_utilization:  # the rare case; NaN too
            u = self._check(u)
        utils = self._utils
        lats = self._lats
        j = bisect_right(utils, u) - 1
        if j < 0:
            value = lats[0]
        elif j == len(utils) - 1 or u == utils[j]:
            value = lats[j]
        else:
            x0 = utils[j]
            x1 = utils[j + 1]
            y0 = lats[j]
            y1 = lats[j + 1]
            slope = (y1 - y0) / (x1 - x0)
            value = slope * (u - x0) + y0
            if value != value:
                value = slope * (u - x1) + y1
                if value != value and y0 == y1:
                    value = y0
        # The interpolation is flat outside the domain, which is the
        # right behaviour at both ends (idle below, saturated above).
        # This clamp, min(max(value, lats[0]), lats[-1]) spelled out,
        # guards against float-overflow artifacts when points are
        # pathologically close together: physically the value must lie
        # within the curve's range.
        if lats[0] > value:
            value = lats[0]
        if lats[-1] < value:
            value = lats[-1]
        return value

    def latency_ns_batch(self, utilization: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`latency_ns`, elementwise bit-identical.

        ``np.interp`` evaluates each element with the compiled step that
        :meth:`latency_ns` replays, and ``np.clip`` performs the
        identical ``min(max(...))`` pair, so ``latency_ns_batch(u)[i] ==
        latency_ns(u[i])`` bit-for-bit.  Used by the batched miss fast
        path, which plans a whole run of admissions at once: one
        vectorized call replaces a Python-level loop of scalar lookups.
        """
        import numpy as np

        bad = ~np.isfinite(utilization) | (utilization < 0.0)
        bad |= utilization > self._limit
        if bad.any():
            self._check(float(utilization[bad][0]))
        utils = np.array(self._utils)
        lats = np.array(self._lats)
        u = np.minimum(utilization, self.top_utilization)
        return np.clip(np.interp(u, utils, lats), lats[0], lats[-1])

    def latency_at(self, bandwidth_bytes: float) -> float:
        """Loaded latency (ns) at an observed bandwidth (bytes/s)."""
        return self.latency_ns(self.utilization_of(float(bandwidth_bytes)))

    def utilization_of(self, bandwidth_bytes: float) -> float:
        """Bandwidth as a fraction of theoretical peak."""
        return bandwidth_bytes / self.peak_bw_bytes

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON document (the stored utilization points)."""
        return json.dumps(
            {
                "machine": self.machine_name,
                "peak_bw_bytes": self.peak_bw_bytes,
                "source": self.source,
                "points": [
                    {"utilization": u, "latency_ns": lat} for u, lat in self.points
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "LatencyProfile":
        """Deserialize from :meth:`to_json` output."""
        try:
            doc = json.loads(text)
            return cls(
                machine_name=doc["machine"],
                peak_bw_bytes=doc["peak_bw_bytes"],
                points=tuple(
                    (p["utilization"], p["latency_ns"]) for p in doc["points"]
                ),
                source=doc.get("source", "unknown"),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ProfileError(f"malformed profile document: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        """Write the profile to ``path`` as JSON."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LatencyProfile":
        """Read a profile previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())
