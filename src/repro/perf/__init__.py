"""Execution-performance layer: parallel fan-out and simulation caching.

The experiment pipeline is built from dozens-to-hundreds of *independent*
:func:`~repro.sim.hierarchy.run_trace` simulations (X-Mem load levels,
ablation grid points, per-routine cross-validations, table rows).  This
package makes that pipeline scale with cores and never repeat work:

* :mod:`repro.perf.parallel` — :func:`fan_out`, an ordered
  process-pool map with a serial fallback, used by the X-Mem runner, the
  experiment harness, and the ablation sweeps;
* :mod:`repro.perf.cache` — a content-addressed on-disk cache keyed by a
  stable SHA-256 digest of ``(machine, config, trace, repro version)``
  that memoizes :class:`~repro.sim.stats.SimStats`, so repeated
  ``reproduce``/``characterize``/benchmark runs are near-instant and an
  interrupted sweep resumes by rerunning it.

Both honor environment variables (``REPRO_JOBS``, ``REPRO_CACHE``,
``REPRO_CACHE_DIR``) and the CLI's ``--jobs`` / ``--no-cache`` flags.

Importing the package loads neither module: the names below resolve on
first use.  :func:`fan_out` imports :mod:`concurrent.futures`, and with
it :mod:`multiprocessing`, only when it builds a pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_namespace

if TYPE_CHECKING:
    from .cache import (
        CacheCounters,
        SimCache,
        cached_run_trace,
        configure_cache,
        digest_for,
        get_cache,
        stable_digest,
    )
    from .parallel import fan_out, resolve_jobs

__all__ = [
    "CacheCounters",
    "SimCache",
    "cached_run_trace",
    "configure_cache",
    "digest_for",
    "fan_out",
    "get_cache",
    "resolve_jobs",
    "stable_digest",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "cache": (
            "CacheCounters",
            "SimCache",
            "cached_run_trace",
            "configure_cache",
            "digest_for",
            "get_cache",
            "stable_digest",
        ),
        "parallel": (
            "fan_out",
            "resolve_jobs",
        ),
    },
)
