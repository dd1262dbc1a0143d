"""Deterministic, seeded sim-cache corruption.

The simulation cache has to survive corrupt entries: a damaged entry
must be a warned miss, quarantined and re-simulated.  That recovery
path cannot be trusted unless it is *exercisable*, so this module lets
a test, or a CI leg running the whole suite, damage cache entries right
after they are stored (:meth:`repro.perf.cache.SimCache.store`).

Spec grammar (``REPRO_FAULTS`` or :func:`configure_faults`)::

    spec      := entry (';' entry)*
    entry     := kind [':' param (',' param)*]
    param     := name '=' value
    kind      := cache_corrupt | cache_truncate

Params: ``p`` (firing probability per stored entry, default ``1.0``)
and ``seed`` (default ``0``).

Example::

    REPRO_FAULTS="cache_corrupt:p=0.1,seed=7"

Determinism
-----------
Whether a fault fires at a site is a pure function of
``(kind, seed, site key)``: the decision hashes the key (the entry's
digest) with SHA-256 and compares the result against ``p``.  No RNG
state is consumed, so firing decisions are independent of call order,
process boundaries (workers inherit the spec through the environment),
and the number of other sites — a fixed seed damages exactly the same
entries every run.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from ..errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "FaultRule",
    "FaultInjector",
    "configure_faults",
    "get_injector",
    "parse_fault_spec",
]

#: Every fault kind the harness knows how to inject.
FAULT_KINDS = ("cache_corrupt", "cache_truncate")

#: Hash-bucket denominator for the firing decision.
_BUCKETS = float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One armed fault kind: firing probability and seed."""

    kind: str
    p: float = 1.0
    seed: int = 0

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
            if name not in ("p", "seed"):
                raise ConfigurationError(
                    f"unknown fault param {name!r} (known: p, seed)"
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
            else:
                seed = int(number)
        if kind in rules:
            raise ConfigurationError(f"duplicate fault kind {kind!r} in spec")
        rules[kind] = FaultRule(kind=kind, p=p, seed=seed)
    return rules


class FaultInjector:
    """The armed fault set and its one injection site."""

    __slots__ = ("rules",)

    def __init__(self, rules: Optional[Mapping[str, FaultRule]] = None) -> None:
        self.rules: Dict[str, FaultRule] = dict(rules or {})

    @property
    def active(self) -> bool:
        """Is any fault kind armed at all?"""
        return bool(self.rules)

    def fires(self, kind: str, key: str) -> bool:
        """Deterministically decide whether ``kind`` fires at ``key``."""
        rule = self.rules.get(kind)
        return rule is not None and rule.fires(key)

    def maybe_corrupt_file(
        self, kind: str, key: str, path: Union[str, Path]
    ) -> bool:
        """Damage an on-disk entry in place when ``kind`` fires at ``key``.

        ``cache_corrupt`` overwrites up to 32 bytes inside the file with
        garbage derived from the key (never past its end);
        ``cache_truncate`` cuts the file in half.  Returns True when
        damage was done (tests assert on it); a missing or empty file
        is left alone.
        """
        if not self.fires(kind, key):
            return False
        path = Path(path)
        try:
            size = path.stat().st_size
        except OSError:
            return False
        if size == 0:
            return False
        if kind == "cache_truncate":
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
            return True
        garbage = hashlib.sha256(f"{kind}:{key}".encode("utf-8")).digest()
        offset = min(size // 3, max(size - len(garbage), 0))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(garbage[: size - offset])
        return True


# -- process-global injector (mirrors the perf.cache handle pattern) -------------

_global_injector: Optional[FaultInjector] = None


def get_injector() -> FaultInjector:
    """The process-wide injector, parsed lazily from ``REPRO_FAULTS``.

    An empty/unset spec yields an inert injector (``active`` is False).
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
