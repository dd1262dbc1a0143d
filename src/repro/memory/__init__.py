"""Memory-system models: loaded-latency curves and per-machine profiles.

This package is pure modeling (no simulation state): the discrete-event
memory controller that *uses* these models lives in :mod:`repro.sim`.
"""

from .latency_model import (
    LatencyModel,
    TabulatedLatencyModel,
    model_for_machine,
)
from .profile import LatencyProfile, ProfilePoint

__all__ = [
    "LatencyModel",
    "LatencyProfile",
    "ProfilePoint",
    "TabulatedLatencyModel",
    "model_for_machine",
]
