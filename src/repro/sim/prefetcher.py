"""L2 stream prefetcher (plus an L1 next-line helper).

Models the behaviour the paper leans on:

* the L2 prefetcher detects **unit-stride line streams** and runs ahead
  of them by a configurable distance/degree — so streaming routines
  (HPCG, MiniGhost) are covered by prefetches and their outstanding
  requests live in the **L2** MSHR file, while random routines (ISx)
  never trigger it and stay bound by the **L1** MSHR file,
* it can track at most :attr:`StreamPrefetcher.max_streams` concurrent
  streams per core — KNL's 16-stream limit is the paper's explanation
  for HPCG's weak 4-way-SMT gain (8–10 streams per thread × 4 threads
  overflow the tracker),
* prefetch requests occupy L2 MSHRs and are dropped (not queued) when
  the file is full — they are hints, not obligations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError


@dataclass(slots=True)
class _Stream:
    """State of one detected (or training) stream."""

    last_line: int
    direction: int  # +1 or -1 line steps
    confidence: int = 0
    next_prefetch_line: Optional[int] = None


class StreamPrefetcher:
    """Per-core L2 stream prefetcher.

    Parameters
    ----------
    line_bytes:
        Cache line size (stride detection granularity).
    max_streams:
        Concurrent streams the tracker can hold (paper: 16 on KNL/SKL).
    degree:
        Prefetches issued per triggering access once a stream is live.
    distance:
        How many lines ahead of the demand stream to run.
    train_threshold:
        Consecutive same-direction line steps needed before issuing.
    enabled:
        The paper disables the hardware prefetcher to classify routines;
        mirroring that switch here.
    """

    def __init__(
        self,
        line_bytes: int,
        *,
        max_streams: int = 16,
        degree: int = 2,
        distance: int = 8,
        train_threshold: int = 2,
        enabled: bool = True,
    ) -> None:
        if line_bytes <= 0:
            raise SimulationError("line_bytes must be positive")
        if max_streams <= 0 or degree <= 0 or distance <= 0:
            raise SimulationError("prefetcher parameters must be positive")
        self.line_bytes = line_bytes
        self.max_streams = max_streams
        self.degree = degree
        self.distance = distance
        self.train_threshold = train_threshold
        self.enabled = enabled
        self._streams: Dict[int, _Stream] = {}  # keyed by 4KiB page
        self.issued = 0
        self.dropped_no_stream_slot = 0

    def observe(self, line_addr: int) -> List[int]:
        """Feed one demand access (line address); returns lines to prefetch.

        The returned addresses are *candidates*: the caller (the L2
        controller in :mod:`repro.sim.hierarchy`) filters out lines that
        are already cached or in flight and drops the rest if the L2
        MSHR file is full.
        """
        if not self.enabled:
            return []
        # Streams are tracked per 4 KiB page.
        return self._observe_one(line_addr >> 12, line_addr // self.line_bytes)

    def _observe_one(self, page: int, line_no: int) -> List[int]:
        """Table transition for one observed demand line (enabled path).

        The hierarchy's ``_train_prefetcher`` calls this directly, behind
        its own ``enabled`` test, to spare every L1 miss the
        :meth:`observe` call.
        """
        streams = self._streams
        # The table is kept in least-recently-touched order: a touched
        # stream is popped and re-inserted last, so eviction takes the
        # first key.
        stream = streams.pop(page, None)

        if stream is None:
            if len(streams) >= self.max_streams and not self._evict_stale():
                self.dropped_no_stream_slot += 1
                return []
            streams[page] = _Stream(line_no, 0)
            return []

        streams[page] = stream
        step = line_no - stream.last_line
        if step == 0:
            return []  # same line again; no new information
        direction = 1 if step > 0 else -1
        if -2 <= step <= 2:
            if direction == stream.direction:
                confidence = stream.confidence + 1
            else:
                stream.direction = direction
                confidence = 1
        else:
            # Non-unit jump: restart training within the page.
            stream.direction = direction
            confidence = 0
        stream.confidence = confidence
        stream.last_line = line_no

        if confidence < self.train_threshold:
            return []

        # Live stream: issue `degree` prefetches `distance` lines ahead.
        # Every branch above left stream.direction == direction.
        ahead = line_no + direction * self.distance
        start = stream.next_prefetch_line
        if start is None or ahead * direction > start * direction:
            start = ahead
        # The targets start, start + direction, ... (degree of them)
        # as byte addresses, those below line 0 dropped: one range.  An
        # ascending stream starts at or past ``ahead`` > 0, so only a
        # descending one can reach below line 0.
        stop = start + direction * self.degree
        stream.next_prefetch_line = stop
        if stop < -1:
            stop = -1
        line_bytes = self.line_bytes
        candidates = list(
            range(start * line_bytes, stop * line_bytes, direction * line_bytes)
        )
        self.issued += len(candidates)
        return candidates

    # -- snapshot/replay surface (batch-stepping miss fast path) ----------------

    def snapshot(
        self,
    ) -> Tuple[Dict[int, Tuple[int, int, int, Optional[int]]], int, int]:
        """Copy of the full tracker state, for speculative replay.

        The batched miss path replays :meth:`observe` over a planned run
        of misses *before* committing the run; if any observation would
        emit prefetch candidates, the run is cut there and the tracker
        restored, so the emitting access trains the prefetcher through
        the scalar path instead.
        """
        return (
            {
                page: (
                    s.last_line,
                    s.direction,
                    s.confidence,
                    s.next_prefetch_line,
                )
                for page, s in self._streams.items()
            },
            self.issued,
            self.dropped_no_stream_slot,
        )

    def restore(
        self,
        snap: Tuple[Dict[int, Tuple[int, int, int, Optional[int]]], int, int],
    ) -> None:
        """Reset the tracker to a :meth:`snapshot` copy."""
        streams, issued, dropped = snap
        self._streams = {page: _Stream(*state) for page, state in streams.items()}
        self.issued = issued
        self.dropped_no_stream_slot = dropped

    def observe_replay(self, line_addrs: np.ndarray) -> Optional[int]:
        """Replay observations in order; stop at the first emission.

        Returns the index of the first element whose sequential
        :meth:`observe` call would return candidates — the tracker is
        then mid-mutated (the emitting transition already ran) and the
        caller must :meth:`restore` and re-replay the shorter prefix.
        Returns None when no element emits; the tracker is then exactly
        the state sequential observes of the whole vector would leave.

        A *fresh* page — neither tracked at entry nor seen earlier in
        the vector — can only open a new stream, which never emits, so
        each run of consecutive fresh pages is applied in bulk by
        :meth:`_open_streams`.  Only repeat pages step through the
        scalar transition.
        """
        n = len(line_addrs)
        if not self.enabled or not n:
            return None
        pages_arr = line_addrs >> 12
        # First occurrences: equal pages are adjacent after a stable
        # sort, the earliest of each group first.
        order = np.argsort(pages_arr, kind="stable")
        sorted_pages = pages_arr[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sorted_pages[1:], sorted_pages[:-1], out=first[1:])
        is_repeat = np.ones(n, dtype=bool)
        is_repeat[order[first]] = False
        streams = self._streams
        if streams:
            tracked = np.sort(
                np.fromiter(streams, dtype=pages_arr.dtype, count=len(streams))
            )
            pos = np.searchsorted(tracked, pages_arr)
            np.minimum(pos, len(tracked) - 1, out=pos)
            is_repeat |= tracked[pos] == pages_arr
        pages = pages_arr.tolist()
        line_nos = (line_addrs // self.line_bytes).tolist()
        observe_one = self._observe_one
        lo = 0
        for i in np.flatnonzero(is_repeat).tolist():
            if i > lo:
                self._open_streams(pages[lo:i], line_nos[lo:i])
            if observe_one(pages[i], line_nos[i]):
                return i
            lo = i + 1
        if lo < n:
            self._open_streams(pages[lo:], line_nos[lo:])
        return None

    def _open_streams(self, pages: List[int], line_nos: List[int]) -> None:
        """Sequential :meth:`_observe_one` over distinct untracked pages.

        Each observation opens a training stream, evicting the
        least-recently-touched stream when the table is full.  Only the
        evictions and the streams that survive them are performed: the
        table keeps its last ``max_streams`` entries of old-then-new, so
        at most ``max_streams`` streams are created however long the
        run.
        """
        m = len(pages)
        streams = self._streams
        excess = len(streams) + m - self.max_streams
        for _ in range(min(excess, len(streams))):
            del streams[next(iter(streams))]
        for j in range(max(0, m - self.max_streams), m):
            streams[pages[j]] = _Stream(line_nos[j], 0)

    def _evict_stale(self) -> bool:
        """Evict the least-recently-touched stream; False if table empty.

        Touch order is dict order: :meth:`_observe_one` pops a touched
        stream and re-inserts it last, and :meth:`_open_streams` inserts
        new ones last, so the first key is the least recently touched.
        """
        if not self._streams:
            return False
        del self._streams[next(iter(self._streams))]
        return True

    @property
    def active_streams(self) -> int:
        """Streams currently tracked."""
        return len(self._streams)
