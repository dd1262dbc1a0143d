"""Ordered process-pool map over independent simulations.

:func:`fan_out` is the pipeline's single parallelism primitive: apply a
picklable callable to a list of items and return the results **in item
order**, whatever order the workers finish in.

* ``jobs=1`` (the default) or a single item runs serially in-process —
  bit-identical to the plain list comprehension it replaces;
* ``jobs>1`` maps over a :class:`~concurrent.futures.ProcessPoolExecutor`
  (simulations are pure CPU-bound Python, so threads cannot help);
* a pool that cannot start (sandboxes without working semaphores) or
  cannot pickle the callable falls back to serial execution with a
  :class:`UserWarning` rather than failing the experiment.

An item's exception propagates unchanged, exactly as from the plain
loop.  Nothing is retried and nothing is checkpointed: every simulation
goes through the content-addressed sim cache
(:func:`repro.perf.cache.cached_run_trace`), so an interrupted sweep
resumes by rerunning the same command — finished simulations are cache
hits, only the rest run.

Worker processes run with their own :mod:`repro.perf.cache` handle;
each call returns its cache-counter delta, which is merged into the
parent's counters so the CLI summary stays truthful under any
``--jobs`` value.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError
from .cache import get_cache

T = TypeVar("T")
R = TypeVar("R")

#: Hard ceiling on worker counts: anything larger is certainly a typo
#: (no machine this code targets has more cores, and the pool would
#: fork-bomb the host).
MAX_JOBS = 4096


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count resolution: explicit > ``REPRO_JOBS`` > serial.

    ``jobs=0`` (or ``REPRO_JOBS=0``) means "one worker per CPU".
    Negative, absurdly large (> :data:`MAX_JOBS`), or non-integer values
    are rejected with :class:`~repro.errors.ConfigurationError` whether
    they arrive via the parameter or the environment.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ConfigurationError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from exc
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs > MAX_JOBS:
        raise ConfigurationError(
            f"jobs must be <= {MAX_JOBS}, got {jobs} — an absurd worker "
            "count is almost certainly a typo"
        )
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


class _TrackedCall:
    """Picklable wrapper returning ``(result, cache-counter delta)``.

    Runs inside worker processes; the delta lets the parent account for
    cache traffic that happened out-of-process.
    """

    __slots__ = ("func",)

    def __init__(self, func: Callable[[T], R]) -> None:
        self.func = func

    def __call__(self, item: T) -> Tuple[R, Any]:
        counters = get_cache().counters
        before = counters.snapshot()
        result = self.func(item)
        return result, counters.diff(before)


def _is_pickling_failure(exc: BaseException) -> bool:
    """Did this failure come from the pickle layer, not from ``func``?"""
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (AttributeError, TypeError)) and "pickle" in str(
        exc
    ).lower()


def _run_serially(
    func: Callable[[T], R], items: Sequence[T], exc: BaseException
) -> List[R]:
    warnings.warn(
        f"process pool unavailable ({exc!r}); running {len(items)} "
        "task(s) serially",
        stacklevel=3,
    )
    return [func(item) for item in items]


def fan_out(
    func: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: Optional[int] = None,
) -> List[R]:
    """Apply ``func`` to every item, preserving item order in the result.

    ``jobs`` resolves through :func:`resolve_jobs`.  With more than one
    worker both ``func`` and the items must be picklable; a pool that
    cannot start or cannot pickle the work runs the remaining items
    serially with a warning.  The first failing item's exception
    propagates unchanged.
    """
    materialized = list(items)
    workers = min(resolve_jobs(jobs), len(materialized))
    if workers <= 1:
        return [func(item) for item in materialized]
    # Imported here: it loads multiprocessing, which a serial run never uses.
    from concurrent.futures import ProcessPoolExecutor

    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, ImportError) as exc:
        return _run_serially(func, materialized, exc)
    counters = get_cache().counters
    results: List[R] = []
    with pool:
        try:
            for result, delta in pool.map(_TrackedCall(func), materialized):
                counters.add(delta)
                results.append(result)
            return results
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            if not _is_pickling_failure(exc):
                raise
            failure = exc
    return results + _run_serially(func, materialized[len(results) :], failure)
