"""Simulated memory controller: a bandwidth-capped latency oracle.

Design (per DESIGN.md §5): the controller enforces the machine's
bandwidth ceiling by admitting one cache line per ``line_bytes /
effective_bw`` seconds, and assigns each admitted request a completion
latency taken from the machine's **calibrated loaded-latency curve**
(``machine.latency_model``, the same
:class:`~repro.memory.profile.LatencyProfile` object the solver and the
default Eq. 2 analyzer read) at the controller's currently observed
utilization.  Consequences:

* the X-Mem substitute (:mod:`repro.xmem`) sweeps injection rates
  against this controller and records the mean latency it observes at
  each achieved bandwidth; that profile, not the calibrated curve, is
  what the paper's workflow hands the analyzer.  The two are not the
  same curve: on skl the swept profile reads up to 58% above the
  calibrated one (188 vs 119 ns at utilization 0.74, 97 vs 80 ns at
  idle).  ROADMAP.md's open item "Close the Eq. 2 loop on our own
  simulator" tracks the gap;
* Little's law holds by construction *of the physics*, so the measured
  MSHR occupancy equals rate × latency — which the property tests check
  against the independently-integrated occupancy trackers;
* when MSHR-limited clients cannot keep the pipe full, utilization and
  thus latency fall, reproducing the closed-loop feedback the paper's
  Figure 2 ceiling captures.

Utilization is estimated over a sliding window of recent admissions.
Every admission, request or writeback, moves one line, so the window
holds admission times only and its byte total is its length times
``line_bytes``.  Writebacks consume admission slots (bandwidth) but complete
immediately (no MSHR is held for them).  Admission is FIFO, so each
request's slot, latency and completion time are settled when it is
made; a request costs the engine one event, its completion.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Callable, Deque, Tuple

import numpy as np

from ..errors import SimulationError
from ..memory.profile import LatencyProfile
from ..units import GIGA, ns
from .engine import Engine
from .stats import MemoryStats


_INF = math.inf

#: Fixed-point passes :func:`_admissions` spends before it finishes the
#: remaining back-to-back chain with one ``cumsum``.
ADMIT_PASSES = 32


def _admissions(issue_ns: np.ndarray, next_free: float, slot: float) -> np.ndarray:
    """Admission times of a run: ``a[i] = max(t[i], a[i-1] + slot)``.

    The scalar chain, seeded by ``a[-1] + slot = next_free``, is solved
    by Jacobi passes starting from ``a = t``.  A pass applies the
    scalar chain's own add and ``max``, so it never overshoots the
    exact solution and fixes one more element of every back-to-back
    chain.  Every element up to and including the first one a pass
    changes was computed from a final predecessor, so that prefix is
    final and later passes skip it.  After
    :data:`ADMIT_PASSES` passes the chain still open at that point is
    finished with ``np.cumsum([a, slot, slot, ...])`` — the same
    left-to-right adds — up to the first issue time that breaks it,
    and the passes resume behind the break.
    """
    n = len(issue_ns)
    admit = np.array(issue_ns, dtype=np.float64)
    if not n:
        return admit
    if next_free > admit[0]:
        admit[0] = next_free
    exact = 1  # admit[:exact] is final
    while exact < n:
        for _ in range(ADMIT_PASSES):
            step = np.maximum(issue_ns[exact:], admit[exact - 1 : -1] + slot)
            changed = step != admit[exact:]
            if not changed.any():
                return admit
            admit[exact:] = step
            exact += int(np.argmax(changed)) + 1
        chain = np.full(n - exact + 1, slot)
        chain[0] = admit[exact - 1]
        np.cumsum(chain, out=chain)
        breaks = issue_ns[exact:] > chain[1:]
        length = int(np.argmax(breaks)) if breaks.any() else n - exact
        admit[exact : exact + length] = chain[1 : length + 1]
        exact += length
        if exact < n:
            admit[exact] = issue_ns[exact]
            exact += 1
    return admit


def _no_op() -> None:
    """Event body of a writeback's admission: it only advances time."""


class MemoryController:
    """Rate-limited, curve-driven memory service.

    Parameters
    ----------
    engine:
        The event engine.
    latency_model:
        The machine's calibrated curve (``machine.latency_model``), read
        by utilization through ``latency_ns``: the slice's utilization
        is the socket's, so the curve's own socket peak never enters.
    peak_bw_bytes:
        Theoretical peak bandwidth of the *simulated slice* (the
        hierarchy scales socket bandwidth down to the simulated core
        count).
    achievable_fraction:
        Streams-achievable fraction; admission is capped here.
    line_bytes:
        Transfer granularity.
    stats:
        Shared :class:`MemoryStats` to update.
    window_ns:
        Sliding window for the utilization estimate.
    """

    __slots__ = (
        "engine",
        "latency_model",
        "peak_bw_bytes",
        "achievable_bw_bytes",
        "line_bytes",
        "stats",
        "window_ns",
        "_window_s",
        "slot_ns",
        "_next_free_ns",
        "_recent",
        "_audit",
        "_req_seq",
    )

    def __init__(
        self,
        engine: Engine,
        latency_model: LatencyProfile,
        *,
        peak_bw_bytes: float,
        achievable_fraction: float,
        line_bytes: int,
        stats: MemoryStats,
        window_ns: float = 2000.0,
    ) -> None:
        if peak_bw_bytes <= 0:
            raise SimulationError("peak bandwidth must be positive")
        if not 0 < achievable_fraction <= 1:
            raise SimulationError("achievable fraction must be in (0,1]")
        if not window_ns >= 0:
            raise SimulationError("utilization window must be non-negative")
        self.engine = engine
        self.latency_model = latency_model
        self.peak_bw_bytes = peak_bw_bytes
        self.achievable_bw_bytes = peak_bw_bytes * achievable_fraction
        self.line_bytes = line_bytes
        self.stats = stats
        self.window_ns = window_ns
        self._window_s = ns(window_ns)
        #: ns per admitted line at the achievable-bandwidth cap.
        self.slot_ns = line_bytes / self.achievable_bw_bytes * GIGA
        self._next_free_ns = 0.0
        #: Admission times in the utilization window, oldest first.
        self._recent: Deque[float] = deque()
        #: Optional sanitizer hook (the RunSanitizer; set when armed).
        self._audit = None
        self._req_seq = 0

    # -- utilization estimate ----------------------------------------------------

    def _note_admission(self, admit_ns: float) -> None:
        recent = self._recent
        recent.append(admit_ns)
        cutoff = admit_ns - self.window_ns
        while recent[0] < cutoff:
            recent.popleft()

    def utilization(self, now_ns: float) -> float:
        """Recent-bytes utilization of theoretical peak, in [0, 1].

        Counts every admission in the deque at or after ``now_ns -
        window_ns``, one line each.  Admissions are noted when the
        request is made, so mid-run the deque also holds slots already
        granted for the future (``admit > now_ns``); they count too.
        Once the event queue drains, every noted admission lies in the
        past.
        """
        recent = self._recent
        cutoff = now_ns - self.window_ns
        while recent and recent[0] < cutoff:
            recent.popleft()
        if not recent:
            return 0.0
        rate = len(recent) * self.line_bytes / self._window_s
        return min(1.0, rate / self.peak_bw_bytes)

    # -- request service -----------------------------------------------------------

    def request(
        self,
        is_write: bool,
        is_prefetch: bool,
        on_complete: Callable[[], None],
    ) -> None:
        """Service one cache-line request.

        The controller is a FIFO: ``admit = max(now, next_free)`` rises
        strictly from one request to the next, so the request's slot,
        its loaded latency and its completion time are all fixed the
        moment it is made.  :meth:`_admit` settles the admission at once
        and schedules ``on_complete`` at ``admit + latency``, the one
        engine event of the request.  The completion's tie-break
        sequence number is drawn now, not at the slot: see
        :meth:`_admit` for the one ordering this changes.
        """
        now = self.engine.now
        # max(now, next_free) without the call: the same value, now on a tie.
        admit = self._next_free_ns
        if not admit > now:
            admit = now
        self._next_free_ns = admit + self.slot_ns
        seq = self._req_seq
        self._req_seq = seq + 1

        audit = self._audit
        if audit is not None:
            # Audit the full system time (arrival -> completion); the
            # wrap observes only — the schedule call in _admit is
            # unchanged, so event ordering and the fingerprint are too.
            audit.memctrl_enter(now, seq, "request")
            inner_complete = on_complete

            def _audited_complete() -> None:
                audit.memctrl_exit(self.engine.now, seq)
                inner_complete()

            on_complete = _audited_complete

        self._admit(admit - now, admit, is_write, is_prefetch, on_complete)

    def _admit(
        self,
        queued_ns: float,
        admit_ns: float,
        is_write: bool,
        is_prefetch: bool,
        on_complete: Callable[[], None],
    ) -> None:
        """Record one admission at ``admit_ns`` and schedule its completion.

        The admission itself is exact although it runs at request time,
        not at ``admit_ns``: admissions rise strictly in request order,
        so the deque holds exactly the admissions at or before
        ``admit_ns``, trimmed at the same cutoff, and the stats adds
        happen in admission order.  The completion lands at the same
        float time as when an event at ``admit_ns`` scheduled it.

        Its tie-break sequence number does not: it is drawn at request
        time, so it precedes every event scheduled between the request
        and ``admit_ns``.  An event of that kind (the issuing core's next
        attempt, say) that lands at exactly ``admit + latency`` now fires
        after the completion, where it used to fire before it; a load of
        a line an L2 prefetch has in flight then hits in the L2 instead
        of merging as a late prefetch hit.  Only an exact float tie does
        this; none occurs in the benchmark's simulations (see
        ``benchmarks/parity.py``), and ``tests/test_sim_admission.py``
        pins a constructed one.
        """
        # _note_admission(admit_ns), inlined: this runs on every memory
        # request.  The trim stops at the admission just appended, the
        # newest entry, so the deque never empties.
        line_bytes = self.line_bytes
        recent = self._recent
        recent.append(admit_ns)
        cutoff = admit_ns - self.window_ns
        while recent[0] < cutoff:
            recent.popleft()
        # utilization() at the admission time, without its second
        # deque walk: the trim above used the same cutoff and left the
        # deque non-empty.
        util = len(recent) * line_bytes / self._window_s / self.peak_bw_bytes
        if util > 1.0:
            util = 1.0
        latency = self.latency_model.latency_ns(util)
        stats = self.stats
        if is_prefetch:
            stats.prefetch_bytes += line_bytes
        elif is_write:
            stats.demand_write_bytes += line_bytes
        else:
            stats.demand_read_bytes += line_bytes
        stats.requests += 1
        stats.latency_sum_ns += latency + queued_ns
        stats.latency_count += 1
        # engine.schedule_at(admit_ns + latency, on_complete) without
        # the call, range check included.
        engine = self.engine
        time_ns = admit_ns + latency
        if not (engine.now <= time_ns < _INF):
            raise SimulationError(
                f"cannot schedule at {time_ns} before now ({engine.now})"
            )
        seq = engine.seq
        engine.seq = seq + 1
        heappush(engine.heap, (time_ns, seq, on_complete))

    # -- closed-form batch service (batch-stepping miss fast path) --------------

    def plan_batch(
        self, issue_ns: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Closed-form service plan for a run of demand-read misses.

        Computes, *without mutating controller state*, the admission
        time and loaded latency each request would receive from the
        event path, every float bit-identical to sequential
        :meth:`request` calls:

        * admissions solve ``admit[i] = max(t[i], admit[i-1] + slot_ns)``
          (seeded by the next free slot) in array passes, see
          :func:`_admissions`;
        * utilization replays :meth:`_note_admission`'s sliding window
          in one ``searchsorted``: the deque's times followed by the
          run's admissions are time-ordered (admissions are noted when
          requested, but each one still has its completion or writeback
          event at or after its slot; the planner only runs with an
          empty event queue, so every admission already in the deque
          happened at or before the first issue), and cutoffs never
          decrease, so the live entries at admission ``i`` are the
          suffix of ``[deque; admit[:i+1]]`` at or after
          ``admit[i] - window_ns``.  Their byte total is their count
          times ``line_bytes``, an exact int64, divided by the window
          and the peak in the scalar order.

        Returns ``(admit, latency)``; each completion time is ``admit +
        latency`` — the same single float add :meth:`_admit` performs
        when it schedules the completion.  The caller
        commits a (possibly truncated) prefix via :meth:`commit_batch`
        once its run cuts are final.
        """
        n = len(issue_ns)
        admit = _admissions(issue_ns, self._next_free_ns, self.slot_ns)
        recent = self._recent
        d = len(recent)
        times = np.empty(d + n, dtype=np.float64)
        times[:d] = recent
        times[d:] = admit
        first_live = np.searchsorted(times, admit - self.window_ns)
        # Admission i is entry d + i; the live entries are first_live
        # through it, one line each.
        live = (np.arange(d + 1, d + n + 1) - first_live) * self.line_bytes
        utils = live / self._window_s / self.peak_bw_bytes
        np.minimum(utils, 1.0, out=utils)
        # The admission recurrence never depends on latency values, so
        # the curve is consulted once for the whole run, through its
        # bit-identical latency_ns_batch.
        return admit, self.latency_model.latency_ns_batch(utils)

    def commit_batch(
        self, issue_ns: np.ndarray, admit: np.ndarray, latency: np.ndarray
    ) -> None:
        """Apply a planned run's admissions to the controller state.

        The arrays must be a prefix of a :meth:`plan_batch` result for
        the same issue times (the caller may have cut the run shorter
        after planning).  Leaves the utilization deque, next-free slot
        and stats exactly as sequential :meth:`request` calls would:
        cutoffs never decrease and the deque is time-ordered, so one
        trim at the last admission's cutoff drops the same entries as a
        trim after every admission, and only the admissions that
        survive it are appended.  Stats apply the event path's exact
        chained-float arithmetic, and the sanitizer audit is fed
        arrivals and completions merged into event-engine firing order.
        """
        n = len(issue_ns)
        if n == 0:
            return
        line_bytes = self.line_bytes
        recent = self._recent
        cutoff = float(admit[-1]) - self.window_ns
        first = int(np.searchsorted(admit, cutoff))
        if first:
            # Every deque entry is at least as old as an expired admission.
            recent.clear()
        else:
            while recent and recent[0] < cutoff:
                recent.popleft()
        recent.extend(admit[first:].tolist())
        # Same float value as the scalar chain: next_free is recomputed
        # from the last admission exactly as request() would have.
        self._next_free_ns = float(admit[-1]) + self.slot_ns
        stats = self.stats
        # Chained adds of an integer-valued float are exact well below
        # 2**53, so one bulk add is bit-identical to n scalar adds.
        stats.demand_read_bytes += n * line_bytes
        stats.requests += n
        # latency_sum accumulates `latency + (admit - issue)` per request
        # in admission order; cumsum reproduces the chained adds.
        acc = np.empty(n + 1, dtype=np.float64)
        acc[0] = stats.latency_sum_ns
        np.add(latency, admit - issue_ns, out=acc[1:])
        stats.latency_sum_ns = float(np.cumsum(acc)[-1])
        stats.latency_count += n
        seq0 = self._req_seq
        self._req_seq = seq0 + n

        audit = self._audit
        if audit is not None:
            completion = admit + latency
            order = np.argsort(completion, kind="stable")
            times = np.concatenate([issue_ns, completion[order]])
            seqs = np.concatenate(
                [np.arange(seq0, seq0 + n), seq0 + order]
            )
            fire = np.argsort(times, kind="stable")
            for idx in fire.tolist():
                if idx < n:
                    audit.memctrl_enter(
                        float(times[idx]), int(seqs[idx]), "request_batch"
                    )
                else:
                    audit.memctrl_exit(float(times[idx]), int(seqs[idx]))

    def writeback(self) -> None:
        """Consume bandwidth for a dirty-line writeback (fire and forget).

        The admission is noted when the writeback is made, like a
        request's, so the deque stays time-ordered.  One no-op event at
        the admission time keeps a trailing writeback inside the run's
        end time.
        """
        now = self.engine.now
        admit = max(now, self._next_free_ns)
        self._next_free_ns = admit + self.slot_ns

        audit = self._audit
        if audit is not None:
            audit.writebacks += 1

        self._note_admission(admit)
        self.stats.demand_write_bytes += self.line_bytes
        self.stats.requests += 1
        self.engine.schedule_at(admit, _no_op)
