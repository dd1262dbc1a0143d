"""Memory-system models: the loaded-latency curve class.

This package is pure modeling (no simulation state): the discrete-event
memory controller that *uses* these curves lives in :mod:`repro.sim`.
"""

from .profile import LatencyProfile

__all__ = ["LatencyProfile"]
