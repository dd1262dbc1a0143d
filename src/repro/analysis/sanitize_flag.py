"""Whether runs are sanitized: the ``REPRO_SANITIZE`` switch alone.

Split from :mod:`repro.analysis.sanitizer` so that every simulation can
ask the question without importing the sanitizer, and numpy with it:
:class:`~repro.sim.hierarchy.Hierarchy` and
:func:`~repro.perf.cache.cached_run_trace` read :func:`sanitize_enabled`
here and import :class:`~repro.analysis.sanitizer.RunSanitizer` only
when it returns true.  The sanitizer re-exports both functions.
"""

from __future__ import annotations

import os
from typing import Optional

_TRUE_VALUES = ("1", "on", "true", "yes")


def sanitize_enabled() -> bool:
    """Is the instrumented mode requested (``REPRO_SANITIZE`` env)?"""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUE_VALUES


def configure_sanitize(enabled: Optional[bool]) -> None:
    """Enable/disable sanitize mode programmatically (CLI ``--sanitize``).

    Mirrored into the environment so worker processes spawned by
    :func:`repro.perf.parallel.fan_out` inherit the mode under any
    multiprocessing start method.  ``None`` leaves the environment
    untouched.
    """
    if enabled is None:
        return
    if enabled:
        os.environ["REPRO_SANITIZE"] = "1"
    else:
        os.environ.pop("REPRO_SANITIZE", None)
