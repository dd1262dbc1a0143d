"""Spans and layer probes for the benchmark's traced run.

Spans are recorded from outside the program: around the calls the
benchmark makes into each layer, and around the few public functions
that layers call into each other (installed as thin wrappers by
:class:`Probes`).  Each span has a name, start, end, parent span and op
id; spans stay in memory and are written out once, when the run ends.

The wrapper on ``repro.xmem.runner.cached_run_trace`` is installed in
untraced runs too, because ``XMemRunner.measure_level`` returns no
``SimStats`` and the benchmark needs them to analyze and check each
X-Mem op.  In untraced runs it records the result and times nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _NullSpan:
    """Context manager that does nothing (tracing off)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> None:
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, _clock(), 0.0, parent, tracer.op_id])
        tracer._stack.append(self._index)

    def __exit__(self, *exc: Any) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = _clock()
        tracer._stack.pop()


class Tracer:
    """In-memory span recorder; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent_index, op_id]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op_id: Optional[str] = None

    def span(self, name: str) -> Any:
        """Context manager recording one span (or nothing when disabled)."""
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def mark(self) -> int:
        """Index of the next span; pair with :meth:`self_times`."""
        return len(self.spans)

    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Self time per span name over the spans recorded since ``since``.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        spans = self.spans
        out: Dict[str, float] = {}
        child_total = [0.0] * (len(spans) - since)
        for i in range(len(spans) - 1, since - 1, -1):
            name, start, end, parent, _ = spans[i]
            dur = end - start
            out[name] = out.get(name, 0.0) + dur - child_total[i - since]
            if parent >= since:
                child_total[parent - since] += dur
        return out

    def total_time(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` since ``since``."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[0] == name)

    def write(self, path: Path) -> None:
        """Write every span as one JSON document (columnar, compact)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [
                [index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


@dataclass
class SimRecord:
    """One ``cached_run_trace`` call seen by the benchmark."""

    trace: Any
    config: Any
    stats: Any
    #: True when the call simulated (a cache miss), false on a replay.
    simulated: bool


@dataclass
class Recorder:
    """Collects the SimStats and solver points the probes observe."""

    sims: List[SimRecord] = field(default_factory=list)
    #: ``(iterations, fast)`` per solver call (traced runs only).
    solves: List[Tuple[int, bool]] = field(default_factory=list)
    bytes_written: int = 0

    def take_sims(self) -> List[SimRecord]:
        out, self.sims = self.sims, []
        return out


class Probes:
    """Installs and removes the wrappers on layer entry points."""

    def __init__(self, tracer: Tracer, recorder: Recorder) -> None:
        self.tracer = tracer
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = getattr(owner, attr)  # AttributeError: the layer API moved
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def install(self) -> None:
        tracer, rec = self.tracer, self.recorder
        from repro.perf import cache as perf_cache

        def run_probe(original: Any) -> Any:
            return lambda trace, config, **kw: self.cached_run(
                original, trace, config, **kw
            )

        self._patch("repro.xmem.runner", "cached_run_trace", run_probe)
        if not tracer.enabled:
            return

        def spanned(name: str) -> Callable[[Any], Any]:
            def make(original: Any) -> Any:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    with tracer.span(name):
                        return original(*args, **kwargs)

                return wrapper

            return make

        def solver(name: str, fast: bool) -> Callable[[Any], Any]:
            def make(original: Any) -> Any:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    with tracer.span(name):
                        point = original(*args, **kwargs)
                    rec.solves.append((point.iterations, fast))
                    return point

                return wrapper

            return make

        def store(original: Any) -> Any:
            def wrapper(handle: Any, digest: str, stats: Any) -> None:
                with tracer.span("perf.SimCache.store"):
                    original(handle, digest, stats)
                path = handle.path_for(digest)
                if path.is_file():
                    rec.bytes_written += path.stat().st_size

            return wrapper

        self._patch(perf_cache, "digest_for", spanned("perf.digest_for"))
        self._patch(perf_cache.SimCache, "load", spanned("perf.SimCache.load"))
        self._patch(perf_cache.SimCache, "store", store)
        for module in ("repro.perfmodel.runtime", "repro.perfmodel.queueing"):
            self._patch(
                module,
                "solve_operating_point",
                solver("perfmodel.solve_operating_point", False),
            )
        self._patch(
            "repro.perfmodel.runtime",
            "solve_operating_point_fast",
            solver("perfmodel.solve_operating_point_fast", True),
        )

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def cached_run(self, original: Any, trace: Any, config: Any, **kwargs: Any) -> Any:
        """``cached_run_trace`` with its result and cache outcome recorded."""
        from repro.perf.cache import get_cache

        counters = get_cache().counters
        misses = counters.misses
        with self.tracer.span("perf.cached_run_trace"):
            stats = original(trace, config, **kwargs)
        simulated = counters.misses > misses or not get_cache().enabled
        self.recorder.sims.append(SimRecord(trace, config, stats, simulated))
        return stats
