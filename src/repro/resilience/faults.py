"""Deterministic, seeded fault injection: every failure path on demand.

Counter-based analysis has to survive noisy, partial, and malformed
inputs (Treibig et al.'s HPM best practices; Hill's "other models"
caveats), and the simulation cache has to survive corrupt entries.
None of those paths can be trusted unless they are *exercisable*: this module lets tests — and a CI leg — turn each one on
deterministically.

Spec grammar (``REPRO_FAULTS`` or :func:`configure_faults`)::

    spec      := entry (';' entry)*
    entry     := kind [':' param (',' param)*]
    param     := name '=' value
    kind      := cache_corrupt | cache_truncate | trace_corrupt
               | trace_truncate | counter_drop | counter_nan
               | mshr_leak | time_skew | replay_skip

Common params: ``p`` (firing probability per site, default ``1.0``) and
``seed`` (default ``0``).  ``time_skew`` also takes ``skew`` (relative
drift of the recorded latency, default ``0.5``).

Example::

    REPRO_FAULTS="cache_corrupt:p=0.1,seed=7;counter_drop:p=0.05,seed=7"

Determinism
-----------
Whether a fault fires at a site is a pure function of
``(kind, seed, site key)``: the decision hashes the key with SHA-256 and
compares the result against ``p``.  No RNG state is consumed, so firing
decisions are independent of call order, process boundaries (workers
inherit the spec through the environment), and the number of other
sites — a fixed seed reproduces exactly the same failures every run.

Injection sites live in the layers under test (``perf.cache`` stores,
``io.tracefile`` saves, measurement ingestion, the simulator's MSHR
files, memory controller and batch replay); each passes a stable key
(digest, line number, event sequence number).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from ..errors import ConfigurationError, FaultInjected

__all__ = [
    "FAULT_KINDS",
    "FaultRule",
    "FaultInjector",
    "configure_faults",
    "get_injector",
    "parse_fault_spec",
]

#: Every fault kind the harness knows how to inject.
#: The last three are *sanitizer-visible* simulator faults: each plants
#: a bug whose only witness is a reprosan invariant (``mshr_leak`` ->
#: mshr-balance, ``time_skew`` -> littles-law, ``replay_skip`` ->
#: batch-replay), proving the sanitizer catches real corruption.
FAULT_KINDS = (
    "cache_corrupt",
    "cache_truncate",
    "trace_corrupt",
    "trace_truncate",
    "counter_drop",
    "counter_nan",
    "mshr_leak",
    "time_skew",
    "replay_skip",
)

#: Hash-bucket denominator for the firing decision.
_BUCKETS = float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One armed fault kind: firing probability, seed, extra params."""

    kind: str
    p: float = 1.0
    seed: int = 0
    params: Mapping[str, float] = field(default_factory=dict)

    def fires(self, key: str) -> bool:
        """Deterministic draw: does this fault fire at site ``key``?"""
        if self.p <= 0.0:
            return False
        if self.p >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.kind}:{self.seed}:{key}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / _BUCKETS
        return draw < self.p


def parse_fault_spec(spec: str) -> Dict[str, FaultRule]:
    """Parse the ``REPRO_FAULTS`` grammar into per-kind rules."""
    rules: Dict[str, FaultRule] = {}
    for raw_entry in spec.split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        kind, _, raw_params = entry.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r} in REPRO_FAULTS "
                f"(known: {', '.join(FAULT_KINDS)})"
            )
        p, seed = 1.0, 0
        params: Dict[str, float] = {}
        for raw_param in raw_params.split(","):
            param = raw_param.strip()
            if not param:
                continue
            name, sep, value = param.partition("=")
            name = name.strip()
            if not sep:
                raise ConfigurationError(
                    f"fault param {param!r} must be name=value"
                )
            try:
                number = float(value.strip())
            except ValueError as exc:
                raise ConfigurationError(
                    f"fault param {name!r} needs a numeric value, "
                    f"got {value.strip()!r}"
                ) from exc
            if not math.isfinite(number):
                raise ConfigurationError(
                    f"fault param {name!r} must be finite, got {number!r}"
                )
            if name == "p":
                if not 0.0 <= number <= 1.0:
                    raise ConfigurationError(
                        f"fault probability must be in [0,1], got {number}"
                    )
                p = number
            elif name == "seed":
                seed = int(number)
            else:
                params[name] = number
        if kind in rules:
            raise ConfigurationError(f"duplicate fault kind {kind!r} in spec")
        rules[kind] = FaultRule(kind=kind, p=p, seed=seed, params=params)
    return rules


class FaultInjector:
    """The armed fault set, with one helper per injection-site shape."""

    __slots__ = ("rules",)

    def __init__(self, rules: Optional[Mapping[str, FaultRule]] = None) -> None:
        self.rules: Dict[str, FaultRule] = dict(rules or {})

    @property
    def active(self) -> bool:
        """Is any fault kind armed at all?"""
        return bool(self.rules)

    def armed(self, kind: str) -> bool:
        """Is ``kind`` armed (regardless of probability)?"""
        return kind in self.rules

    def fires(self, kind: str, key: str) -> bool:
        """Deterministically decide whether ``kind`` fires at ``key``."""
        rule = self.rules.get(kind)
        return rule is not None and rule.fires(key)

    def param(self, kind: str, name: str, default: float) -> float:
        """A kind's extra parameter (e.g. ``time_skew``'s ``skew``)."""
        rule = self.rules.get(kind)
        if rule is None:
            return default
        return float(rule.params.get(name, default))

    # -- injection-site helpers --------------------------------------------------

    def maybe_raise(self, kind: str, key: str) -> None:
        """Generic site: raise :class:`FaultInjected` when armed + firing."""
        if self.fires(kind, key):
            raise FaultInjected(kind, key)

    def maybe_corrupt_file(
        self, kind: str, key: str, path: Union[str, Path]
    ) -> bool:
        """``*_corrupt``/``*_truncate`` site: damage an on-disk artifact.

        ``*_corrupt`` overwrites a deterministic byte range with garbage
        derived from the key; ``*_truncate`` cuts the file in half.
        Returns True when damage was done (tests assert on it).
        """
        if not self.fires(kind, key):
            return False
        path = Path(path)
        try:
            size = path.stat().st_size
        except OSError:
            return False
        if kind.endswith("truncate"):
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
            return True
        garbage = hashlib.sha256(f"{kind}:{key}".encode("utf-8")).digest()
        with open(path, "r+b") as handle:
            handle.seek(min(size // 3, max(size - len(garbage), 0)))
            handle.write(garbage)
        return True

    def drops_sample(self, key: str) -> bool:
        """``counter_drop`` site: should this sample vanish entirely?"""
        return self.fires("counter_drop", key)

    def nans_sample(self, key: str) -> bool:
        """``counter_nan`` site: should this sample read back as NaN?"""
        return self.fires("counter_nan", key)


# -- process-global injector (mirrors the perf.cache handle pattern) -------------

_global_injector: Optional[FaultInjector] = None


def get_injector() -> FaultInjector:
    """The process-wide injector, parsed lazily from ``REPRO_FAULTS``.

    An empty/unset spec yields an inert injector whose site helpers are
    all no-ops, so production code can call them unconditionally.
    """
    global _global_injector
    if _global_injector is None:
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        _global_injector = FaultInjector(parse_fault_spec(spec) if spec else None)
    return _global_injector


def configure_faults(spec: Optional[str]) -> FaultInjector:
    """Re-arm the global injector (``None``/empty disarms everything).

    The spec is mirrored into ``REPRO_FAULTS`` so worker processes
    spawned by :func:`repro.perf.parallel.fan_out` inherit the same
    armed faults under any multiprocessing start method.
    """
    global _global_injector
    if spec:
        rules = parse_fault_spec(spec)
        os.environ["REPRO_FAULTS"] = spec
        _global_injector = FaultInjector(rules)
    else:
        os.environ.pop("REPRO_FAULTS", None)
        _global_injector = FaultInjector()
    return _global_injector
