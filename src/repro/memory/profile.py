"""Bandwidth → loaded-latency profiles (the paper's once-per-machine artifact).

A :class:`LatencyProfile` is what the paper obtains by running X-Mem on a
machine: a table of (achieved bandwidth, observed latency) samples that,
given any routine's observed bandwidth, yields the loaded latency to plug
into Little's law.  In this reproduction the profile is produced either

* directly from a machine's canonical latency model
  (:meth:`LatencyProfile.from_model`) — the "ground truth" curve, or
* by measurement with the X-Mem substitute (:mod:`repro.xmem`), which
  sweeps load generators through the simulated memory controller and
  records what it observes — the paper's actual workflow.

Profiles can be saved/loaded as JSON so the "computed once per
processor" property (paper footnote 2) holds across sessions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from ..errors import ProfileDomainError, ProfileError
from ..units import to_gb_per_s
from .latency_model import LatencyModel, interp_scalar


@dataclass(frozen=True)
class ProfilePoint:
    """One measured sample: achieved bandwidth and observed latency."""

    bandwidth_bytes: float
    latency_ns: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes < 0:
            raise ProfileError("bandwidth must be non-negative")
        if self.latency_ns <= 0:
            raise ProfileError("latency must be positive")

    @property
    def bandwidth_gbs(self) -> float:
        """Sample bandwidth in GB/s."""
        return to_gb_per_s(self.bandwidth_bytes)


@dataclass(frozen=True)
class LatencyProfile:
    """Interpolatable bandwidth → loaded-latency table for one machine.

    Parameters
    ----------
    machine_name:
        Which machine this profile characterizes.
    peak_bw_bytes:
        Theoretical peak bandwidth; used to express queries as
        utilization and to validate the domain.
    points:
        Measured samples, sorted by bandwidth on construction.
    source:
        Provenance string ("model" or "xmem").
    """

    machine_name: str
    peak_bw_bytes: float
    points: Tuple[ProfilePoint, ...]
    source: str = "model"

    def __post_init__(self) -> None:
        if self.peak_bw_bytes <= 0:
            raise ProfileError("peak bandwidth must be positive")
        if len(self.points) < 2:
            raise ProfileError("profile needs at least two points")
        ordered = tuple(sorted(self.points, key=lambda p: p.bandwidth_bytes))
        bws = [p.bandwidth_bytes for p in ordered]
        if len(set(bws)) != len(bws):
            raise ProfileError("duplicate bandwidth samples in profile")
        lats = [p.latency_ns for p in ordered]
        if any(b < a - 1e-9 for a, b in zip(lats, lats[1:])):
            raise ProfileError("profile latency must be non-decreasing in bandwidth")
        object.__setattr__(self, "points", ordered)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_model(
        cls,
        machine_name: str,
        peak_bw_bytes: float,
        model: LatencyModel,
        *,
        samples: int = 64,
        source: str = "model",
    ) -> "LatencyProfile":
        """Sample a latency model into a profile with ``samples`` points."""
        if samples < 2:
            raise ProfileError("need at least two samples")
        utils = np.linspace(0.0, 1.0, samples)
        points = tuple(
            ProfilePoint(
                bandwidth_bytes=float(u) * peak_bw_bytes,
                latency_ns=model.latency_ns(float(u)),
            )
            for u in utils
        )
        return cls(machine_name, peak_bw_bytes, points, source=source)

    @classmethod
    def from_samples(
        cls,
        machine_name: str,
        peak_bw_bytes: float,
        samples: Sequence[Tuple[float, float]],
        *,
        source: str = "xmem",
    ) -> "LatencyProfile":
        """Build from raw (bandwidth_bytes, latency_ns) measurement pairs.

        Measurement noise can produce locally non-monotone latencies; the
        samples are rectified with a running maximum (a loaded-latency
        curve is physically non-decreasing) before validation.
        """
        ordered = sorted((float(b), float(l)) for b, l in samples)
        rectified = []
        running = 0.0
        for bw, lat in ordered:
            running = max(running, lat)
            rectified.append(ProfilePoint(bw, running))
        return cls(machine_name, peak_bw_bytes, tuple(rectified), source=source)

    # -- queries --------------------------------------------------------------

    @property
    def max_measured_bw_bytes(self) -> float:
        """Highest bandwidth actually reached while characterizing."""
        return self.points[-1].bandwidth_bytes

    @property
    def idle_latency_ns(self) -> float:
        """Latency of the least-loaded sample."""
        return self.points[0].latency_ns

    def latency_at(self, bandwidth_bytes: float) -> float:
        """Loaded latency (ns) at an observed bandwidth (bytes/s).

        Queries above the highest measured bandwidth are allowed up to
        5 % beyond it (counter jitter) and return the saturated latency;
        farther out raises :class:`~repro.errors.ProfileDomainError`.
        """
        if not np.isfinite(bandwidth_bytes) or bandwidth_bytes < 0:
            raise ProfileDomainError(
                f"bandwidth must be finite and >= 0, got {bandwidth_bytes}"
            )
        limit = self.max_measured_bw_bytes * 1.05
        if bandwidth_bytes > limit:
            raise ProfileDomainError(
                f"bandwidth {to_gb_per_s(bandwidth_bytes):.1f} GB/s exceeds "
                f"measured domain ({to_gb_per_s(self.max_measured_bw_bytes):.1f} GB/s)"
            )
        return interp_scalar(float(bandwidth_bytes), self._bandwidths, self._latencies)

    # The sample columns are split once, not per query (cached
    # properties, so equality and repr still see only the fields).

    @cached_property
    def _bandwidths(self) -> Tuple[float, ...]:
        return tuple(float(p.bandwidth_bytes) for p in self.points)

    @cached_property
    def _latencies(self) -> Tuple[float, ...]:
        return tuple(float(p.latency_ns) for p in self.points)

    def utilization_of(self, bandwidth_bytes: float) -> float:
        """Bandwidth as a fraction of theoretical peak."""
        return bandwidth_bytes / self.peak_bw_bytes

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON document."""
        return json.dumps(
            {
                "machine": self.machine_name,
                "peak_bw_bytes": self.peak_bw_bytes,
                "source": self.source,
                "points": [
                    {"bandwidth_bytes": p.bandwidth_bytes, "latency_ns": p.latency_ns}
                    for p in self.points
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "LatencyProfile":
        """Deserialize from :meth:`to_json` output."""
        try:
            doc = json.loads(text)
            points = tuple(
                ProfilePoint(p["bandwidth_bytes"], p["latency_ns"])
                for p in doc["points"]
            )
            return cls(
                machine_name=doc["machine"],
                peak_bw_bytes=doc["peak_bw_bytes"],
                points=points,
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
