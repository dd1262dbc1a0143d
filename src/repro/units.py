"""Unit-safe conversions used throughout the library.

The paper mixes units freely (GB/s for bandwidth, ns for latency, cycles
for core-visible latency, bytes for cache lines).  Getting a factor of
1e9 wrong silently corrupts every MLP number, so all conversions live
here, are tested, and the rest of the library imports these helpers
instead of open-coding constants.

Conventions
-----------
* Bandwidth is stored in **bytes per second** internally; ``GB/s`` means
  decimal gigabytes (1e9 bytes), matching the paper and vendor specs.
* Latency is stored in **seconds** internally; display units are ns.
* Frequencies are in Hz; ``GHz`` means 1e9 Hz.
"""

from __future__ import annotations

GIGA = 1.0e9
MEGA = 1.0e6
KILO = 1.0e3
NANO = 1.0e-9


def gb_per_s(value: float) -> float:
    """Convert decimal GB/s to bytes/s."""
    return value * GIGA


def to_gb_per_s(bytes_per_s: float) -> float:
    """Convert bytes/s to decimal GB/s."""
    return bytes_per_s / GIGA


def ns(value: float) -> float:
    """Convert nanoseconds to seconds."""
    return value * NANO


def ghz(value: float) -> float:
    """Convert GHz to Hz."""
    return value * GIGA


def to_ghz(hz: float) -> float:
    """Convert Hz to GHz."""
    return hz / GIGA


def ns_to_us(latency_ns: float) -> float:
    """Convert nanoseconds to microseconds (report rendering)."""
    return latency_ns / KILO


def ns_to_cycles(latency_ns: float, frequency_ghz: float) -> float:
    """Convenience: ns latency to cycles at a GHz frequency.

    >>> round(ns_to_cycles(180, 2.1))
    378
    """
    return latency_ns * frequency_ghz


def utilization(observed: float, peak: float) -> float:
    """Fraction of peak (0..1+).  Raises on non-positive peak."""
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    if observed < 0:
        raise ValueError(f"observed must be non-negative, got {observed}")
    return observed / peak


def percent(fraction: float) -> float:
    """Fraction to percent, for report rendering."""
    return fraction * 100.0
