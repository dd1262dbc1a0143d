"""Access-pattern classification: which MSHR queue binds a routine.

Per paper Section III-A / III-D, the binding MSHR file depends on the
routine's access pattern:

* **random** accesses do not trigger the L2 hardware prefetcher, so the
  small **L1** MSHR file is the MLP bottleneck;
* **streaming** accesses are covered by the aggressive L2 prefetcher,
  which keeps many prefetch requests in flight, so the larger **L2**
  MSHR file binds.

The classification signal is "the fraction of memory requests that are
generated from hardware prefetcher versus demand loads — this data is
also often exposed through performance counters or one may determine it
by disabling the hardware prefetcher".  The counter method is the one
implemented: :func:`classify_from_prefetch_fraction` reads the
prefetch share and applies :data:`RANDOM_THRESHOLD` and
:data:`STREAMING_THRESHOLD`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError


class AccessPattern(enum.Enum):
    """Coarse access-pattern classes the recipe distinguishes."""

    RANDOM = "random"
    STREAMING = "streaming"
    MIXED = "mixed"

    @property
    def binding_level(self) -> int:
        """Cache level whose MSHR file limits MLP for this pattern."""
        return 1 if self is AccessPattern.RANDOM else 2


@dataclass(frozen=True)
class Classification:
    """Pattern verdict plus the evidence that produced it."""

    pattern: AccessPattern
    prefetch_fraction: float
    rationale: str

    @property
    def binding_level(self) -> int:
        """Cache level whose MSHR file binds this pattern."""
        return self.pattern.binding_level


#: Below this prefetch share the prefetcher is "largely ineffective".
RANDOM_THRESHOLD = 0.20
#: Above this share the routine is clearly prefetcher-covered.
STREAMING_THRESHOLD = 0.50


def classify_from_prefetch_fraction(prefetch_fraction: float) -> Classification:
    """Classify from the hardware-prefetch share of memory traffic."""
    if not 0.0 <= prefetch_fraction <= 1.0:
        raise ConfigurationError(
            f"prefetch fraction must be in [0,1], got {prefetch_fraction}"
        )
    if prefetch_fraction < RANDOM_THRESHOLD:
        return Classification(
            AccessPattern.RANDOM,
            prefetch_fraction,
            f"hardware prefetcher covers only {prefetch_fraction:.0%} of traffic: "
            "largely ineffective, L1 MSHRQ binds",
        )
    if prefetch_fraction >= STREAMING_THRESHOLD:
        return Classification(
            AccessPattern.STREAMING,
            prefetch_fraction,
            f"hardware prefetcher covers {prefetch_fraction:.0%} of traffic: "
            "streaming, L2 MSHRQ binds",
        )
    return Classification(
        AccessPattern.MIXED,
        prefetch_fraction,
        f"prefetcher covers {prefetch_fraction:.0%} of traffic: mixed pattern",
    )
