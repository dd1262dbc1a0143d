"""Little's law, as the paper applies it (Section III-B).

Equation 1:  ``n_avg = lat_avg * R / T``
    the long-term average number of outstanding memory requests equals
    the request arrival rate ``R/T`` times the average latency.

Equation 2:  ``n_avg = lat_avg * BW / cls``
    the same thing with the arrival rate re-expressed through achieved
    bandwidth ``BW = R * cls / T`` at cache-line granularity ``cls``.

The paper reports ``n_avg`` **per core** (its Tables IV–IX divide the
socket-level product by the core count; that is what makes the numbers
comparable to per-core MSHR file sizes).  The functions below take an
explicit ``cores`` argument so both the socket-level and per-core views
are available, with per-core being the default reading everywhere else
in the library.

Little's law assumes a *stationary* system; the paper therefore applies
it per routine/loop, never to a whole program (footnote 1).  The
stationarity guard lives in :mod:`repro.core.analyzer`.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import GIGA, ns


def _check_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")


def mlp_from_bandwidth(
    bandwidth_bytes: float,
    latency_ns: float,
    line_bytes: int,
    *,
    cores: int = 1,
) -> float:
    """Equation 2: per-core average MSHR occupancy from bandwidth.

    ``n_avg = lat_avg * BW / cls / cores`` with ``BW`` in bytes/s and
    ``lat_avg`` in ns.

    >>> round(mlp_from_bandwidth(106.9e9, 145, 64, cores=24), 1)  # ISx/SKL
    10.1
    """
    if bandwidth_bytes < 0:
        raise ConfigurationError(f"bandwidth must be >= 0, got {bandwidth_bytes}")
    _check_positive("latency_ns", latency_ns)
    _check_positive("line_bytes", line_bytes)
    _check_positive("cores", cores)
    return ns(latency_ns) * bandwidth_bytes / line_bytes / cores


def bandwidth_from_mlp(
    n_avg: float, latency_ns: float, line_bytes: int, *, cores: int = 1
) -> float:
    """Equation 2 solved for bandwidth (bytes/s).

    This is the paper's Figure 2 ceiling: the maximum bandwidth ``n``
    MSHRs per core can sustain at loaded latency ``lat``.
    """
    if n_avg < 0:
        raise ConfigurationError(f"n_avg must be >= 0, got {n_avg}")
    _check_positive("latency_ns", latency_ns)
    _check_positive("line_bytes", line_bytes)
    _check_positive("cores", cores)
    return n_avg * cores * line_bytes / ns(latency_ns)


def latency_from_mlp(
    n_avg: float, bandwidth_bytes: float, line_bytes: int, *, cores: int = 1
) -> float:
    """Equation 2 solved for latency (ns) — the third rearrangement."""
    _check_positive("n_avg", n_avg)
    _check_positive("bandwidth_bytes", bandwidth_bytes)
    _check_positive("line_bytes", line_bytes)
    _check_positive("cores", cores)
    return n_avg * cores * line_bytes / bandwidth_bytes * GIGA
