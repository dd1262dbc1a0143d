"""Core front end: per-thread issue contexts over the cache hierarchy.

The core model is deliberately simple — the paper's whole point is that
MLP abstracts away out-of-order minutiae — but it captures the three
things that matter:

* a per-thread **window** of outstanding demand accesses (the ROB/load
  queue share available to the thread; halved per thread under SMT),
* per-access **gap cycles** of independent work (arithmetic intensity),
* stalls when the **L1 MSHR file is full** (the structural hazard the
  paper's metric is built around) and when the window is full.

SMT threads are just multiple :class:`ThreadContext` objects bound to
the same :class:`CoreState` (sharing its caches and MSHRs), exactly the
resource-sharing the paper describes.

The issue loop never touches :class:`~repro.sim.trace.Access` objects:
:class:`ThreadDriver` takes a columnar thread trace's parallel
plain-Python lists once at construction (``issue_columns()``), so the
per-event work is list indexing only, while the batch planner reads the
numpy columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .batch import (
    BATCH_BACKOFF,
    BATCH_LOOKAHEAD,
    MIN_BATCH,
    conflict_free,
    first_duplicate,
    first_member,
    issue_times,
    mshr_admissible,
    run_length,
    window_admissible,
)
from .coltrace import _FIRST_PREFETCH_CODE, KIND_CODES, ColumnarThreadTrace
from .stats import CoreStats
from .trace import AccessKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .cache import CacheArray
    from .hierarchy import Hierarchy, _CoreSlice


@dataclass(slots=True)
class ThreadContext:
    """Issue state of one hardware thread."""

    trace: ColumnarThreadTrace
    core_id: int
    window: int
    next_idx: int = 0
    in_flight: int = 0
    waiting_window: bool = False
    waiting_mshr: bool = False
    stall_start_ns: float = 0.0
    done: bool = False


class ThreadDriver:
    """Drives one thread's trace through the hierarchy."""

    __slots__ = (
        "hierarchy",
        "engine",
        "ctx",
        "core_stats",
        "_core",
        "_addrs",
        "_kinds",
        "_demand",
        "_demand_arr",
        "_gaps",
        "_gaps_ns",
        "_line_bytes",
        "_n",
        "_batch",
        "_batch_miss",
        "_skip_until",
        "_l1_hit_ns",
        "_l2_hit_ns",
        "_lines_arr",
        "_writes_arr",
        "_gap_arr",
        "_gaps_ns_arr",
        "_san",
    )

    def __init__(
        self,
        hierarchy: "Hierarchy",
        context: ThreadContext,
        core_stats: CoreStats,
    ) -> None:
        self.hierarchy = hierarchy
        self.engine = hierarchy.engine
        self.ctx = context
        self.core_stats = core_stats
        core = self._core = hierarchy.cores[context.core_id]
        freq_ghz = hierarchy.machine.frequency_ghz
        trace = context.trace
        self._addrs, self._kinds, self._gaps = trace.issue_columns()
        addr_arr, kind_arr, gap_arr = trace.addr, trace.kind, trace.gap_cycles
        # One vectorized compare / divide per column; the per-element
        # float values are IEEE-identical to scalar division, and
        # tolist() keeps plain Python bools and floats on the engine's
        # hot path (indexing a numpy array boxes a scalar per access).
        demand_arr = kind_arr < _FIRST_PREFETCH_CODE
        self._demand = demand_arr.tolist()
        gaps_ns_arr = gap_arr / freq_ghz
        # Engine.schedule's delay check, once for the whole column:
        # _try_issue pushes its attempts onto the heap unchecked.
        bad = ~((gaps_ns_arr >= 0.0) & (gaps_ns_arr < np.inf))
        if bad.any():
            raise SimulationError(
                "cannot schedule with non-finite or negative delay: "
                f"{float(gaps_ns_arr[bad][0])}"
            )
        self._gaps_ns = gaps_ns_arr.tolist()
        self._line_bytes = core.l1_array.line_bytes
        self._n = len(self._addrs)
        self._batch = hierarchy.batch_enabled
        self._skip_until = 0
        self._l1_hit_ns = hierarchy.l1_hit_ns
        self._l2_hit_ns = hierarchy._l2_hit_ns
        self._san = hierarchy.sanitizer
        if self._batch:
            self._batch_miss = hierarchy.batch_miss_enabled
            self._demand_arr = demand_arr
            self._lines_arr = core.l1_array.line_of_batch(addr_arr)
            self._writes_arr = kind_arr == KIND_CODES[AccessKind.STORE]
            self._gap_arr = gap_arr
            self._gaps_ns_arr = gaps_ns_arr
        else:
            self._batch_miss = False
            self._demand_arr = None
            self._lines_arr = self._writes_arr = None
            self._gap_arr = self._gaps_ns_arr = None

    def start(self) -> None:
        """Schedule the first issue attempt."""
        if self._n == 0:
            self._finish()
            return
        self.engine.schedule(self._gaps_ns[0], self._try_issue)

    # -- issue path -----------------------------------------------------------

    def _try_issue(self) -> None:
        ctx = self.ctx
        i = ctx.next_idx
        if ctx.done or i >= self._n:
            self._maybe_finish()
            return
        # A batch needs zero demand accesses in flight; checking that
        # here spares most attempts the call.
        if (
            self._batch
            and i >= self._skip_until
            and not ctx.in_flight
            and self._try_batch(i)
        ):
            return
        is_demand = self._demand[i]

        if is_demand and ctx.in_flight >= ctx.window:
            if not ctx.waiting_window:
                ctx.waiting_window = True
                ctx.stall_start_ns = self.engine.now
            return  # a completion will re-enter via on_complete

        # Prefetches are non-blocking: they never enter the window, so
        # their completion must not decrement in_flight.
        on_complete = self._on_complete if is_demand else self._on_prefetch_done
        core = self._core
        addr = self._addrs[i]
        if core.tlb is None:
            # No translation: skip issue_access and CacheArray.line_of.
            line_bytes = self._line_bytes
            issued = self.hierarchy._issue_translated(
                core, self._kinds[i], addr // line_bytes * line_bytes, on_complete
            )
        else:
            issued = self.hierarchy.issue_access(
                core, addr, self._kinds[i], on_complete
            )
        if not issued:
            # L1 MSHR file full: record stall and retry when one frees.
            if not ctx.waiting_mshr:
                ctx.waiting_mshr = True
                ctx.stall_start_ns = self.engine.now
            core.l1_mshr.wait_for_free(self._retry_after_mshr)
            return

        if ctx.waiting_window or ctx.waiting_mshr:
            stall = self.engine.now - ctx.stall_start_ns
            if ctx.waiting_mshr:
                self.core_stats.l1_mshr_stall_ns += stall
                self.hierarchy.stats.l1.mshr_full_stalls += 1
                self.hierarchy.stats.l1.mshr_full_stall_ns += stall
            else:
                self.core_stats.window_stall_ns += stall
            ctx.waiting_window = False
            ctx.waiting_mshr = False

        self.core_stats.issued_accesses += 1
        self.core_stats.compute_cycles += self._gaps[i]
        if self._san is not None:
            self._san.scalar_issued += 1
        if is_demand:
            ctx.in_flight += 1
        i += 1
        ctx.next_idx = i

        if i >= self._n:
            self._maybe_finish()
            return
        # engine.schedule(gaps_ns[i], _try_issue) without the call; the
        # constructor checked every gap.
        engine = self.engine
        seq = engine.seq
        engine.seq = seq + 1
        heappush(engine.heap, (engine.now + self._gaps_ns[i], seq, self._try_issue))

    # -- batch-stepping fast path ----------------------------------------------

    def _try_batch(self, start: int) -> int:
        """Retire a run of provably interaction-free accesses in one step.

        Returns the number of accesses retired (0 = conditions not met;
        the caller falls through to the per-event path).  Engagement
        requires a quiescent core — zero outstanding demand accesses
        (the caller checks that), no stall in progress, empty L1/L2
        MSHR files — so nothing outside the run can mutate this core's
        L1 residency mid-run; see :mod:`repro.sim.batch` and docs/PERFORMANCE.md for
        the argument.

        A run of L1 hits is a run with zero misses, so one planner
        serves both.  A run may contain L1 misses only when miss
        batching is on, the event queue is empty (anything queued could
        observe shared memory-controller state or interleave with the
        run's elided events) and both cache arrays are clean (an in-run
        fill could otherwise evict a dirty line and emit a writeback the
        plan does not model).  For such a run the planner reconstructs,
        closed-form, every float the event engine would compute — issue
        times, memory-controller admissions and loaded latencies, L2 and
        L1 fill instants — using the same chained arithmetic in the same
        order, then cuts the run at the first access where any
        event-path behaviour could diverge:

        * a repeated miss line (the event path would merge it onto the
          in-flight MSHR entry),
        * an exact float tie between an issue attempt and a fill, or
          between two fills (firing order there depends on scheduling
          history the planner cannot reconstruct),
        * a planned hit whose set receives an earlier in-run fill (the
          residency snapshot can no longer be trusted),
        * a would-be window stall or a full L1/L2 MSHR file (the event
          path would stall and resume on a wakeup),
        * a miss fill landing at or after the post-run issue attempt
          (the hand-off to the event engine needs empty MSHR files),
        * a prefetcher emission (the emitted prefetches would contend
          for L2 MSHRs and memory bandwidth mid-run).

        A run without misses needs only the window check.  When the cuts
        leave no miss in the prefix, the hit prefix retires alone.  The
        first access past the run replays through the event engine with
        exact state.
        """
        ctx = self.ctx
        if ctx.waiting_window or ctx.waiting_mshr:
            return 0
        hierarchy = self.hierarchy
        core = self._core
        if core.l1_mshr.entries or core.l2_mshr.entries:
            return 0
        stats = hierarchy.stats
        engine = self.engine

        misses_allowed = False
        if self._batch_miss:
            if engine.pending():
                stats.note_batch_fallback("concurrent_events")
            elif core.l1_array.maybe_dirty or core.l2_array.maybe_dirty:
                stats.note_batch_fallback("dirty")
            else:
                misses_allowed = True
        if not misses_allowed:
            # Only a run of demand L1 hits can engage.  Settle its first
            # MIN_BATCH accesses with scalar probes before the numpy work
            # below, declining exactly where that work would.  A probe
            # reads membership only, which queued touches leave exact.
            end = start + MIN_BATCH
            l1 = core.l1_array
            if (
                end > self._n
                or not all(self._demand[start:end])
                or not all(
                    l1.probe(line)  # repro: noqa[BARRIER001]
                    for line in self._lines_arr[start:end].tolist()
                )
            ):
                self._skip_until = start + BATCH_BACKOFF
                return 0

        stop = min(self._n, start + BATCH_LOOKAHEAD)
        lines = self._lines_arr[start:stop]
        hit = core.l1_array.probe_batch(lines)
        ok = self._demand_arr[start:stop]
        if not misses_allowed:
            ok = ok & hit
        # A run may hold stores or misses, never both: a store dirties a
        # line that an in-run fill could evict.
        writes = self._writes_arr[start:stop]
        k = min(run_length(ok), max(run_length(hit), run_length(~writes)))
        if k < MIN_BATCH:
            self._skip_until = start + BATCH_BACKOFF
            return 0
        lines = lines[:k]
        hit = hit[:k]
        t = issue_times(engine.now, self._gaps_ns_arr[start + 1 : start + k])
        completion = t + self._l1_hit_ns
        miss_pos = np.flatnonzero(~hit)
        misses = None
        if not len(miss_pos):
            k = run_length(window_admissible(t, completion, ctx.window))
        else:
            cut = k
            reason = None
            miss_lines = lines[miss_pos]
            d = first_duplicate(miss_lines)
            if d < len(miss_pos) and miss_pos[d] < cut:
                cut = int(miss_pos[d])
                reason = "merge"

            # L2 classification and the closed-form memory service plan.
            # Planning runs at full lookahead; every check below is
            # prefix-consistent (see repro.sim.batch), so the final cut is
            # just the minimum and the surviving prefix needs no replan.
            l2_hit = core.l2_array.probe_batch(miss_lines)
            l2m_pos = miss_pos[~l2_hit]
            l2h_pos = miss_pos[l2_hit]
            admit, latency = hierarchy.memctrl.plan_batch(t[l2m_pos])
            c = admit + latency  # L2 fill instants (event: schedule at admit)
            f1_miss = np.empty(len(miss_pos), dtype=np.float64)
            f1_miss[~l2_hit] = c + self._l2_hit_ns
            f1_miss[l2_hit] = t[l2h_pos] + self._l2_hit_ns

            d = first_duplicate(f1_miss)
            if d < len(miss_pos) and miss_pos[d] < cut:
                cut = int(miss_pos[d])
                reason = "tie"
            d = first_duplicate(c)
            if d < len(l2m_pos) and l2m_pos[d] < cut:
                cut = int(l2m_pos[d])
                reason = "tie"
            m = first_member(t, np.concatenate([f1_miss, c]))
            if m < cut:
                cut = m
                reason = "tie"

            l1_sets = core.l1_array.set_index_batch(lines)
            r = run_length(
                conflict_free(
                    t, l1_sets, hit, l1_sets[miss_pos], f1_miss,
                    core.l1_array.num_sets,
                )
            )
            if r < cut:
                cut = r
                reason = "conflict"
            l2_sets = core.l2_array.set_index_batch(lines)
            l2_check = np.zeros(k, dtype=bool)
            l2_check[l2h_pos] = True
            r = run_length(
                conflict_free(
                    t, l2_sets, l2_check, l2_sets[l2m_pos], c,
                    core.l2_array.num_sets,
                )
            )
            if r < cut:
                cut = r
                reason = "conflict"

            completion[miss_pos] = f1_miss
            r = run_length(window_admissible(t, completion, ctx.window))
            if r < cut:
                cut = r
                reason = "window_stall"

            r = run_length(mshr_admissible(t, ~hit, f1_miss, core.l1_mshr.capacity))
            if r < cut:
                cut = r
                reason = "mshr_pressure"
            l2_alloc = np.zeros(k, dtype=bool)
            l2_alloc[l2m_pos] = True
            r = run_length(mshr_admissible(t, l2_alloc, c, core.l2_mshr.capacity))
            if r < cut:
                cut = r
                reason = "mshr_pressure"

            # Every check above but the window check cuts at or after
            # the first miss, so a cut that drops every miss leaves the
            # hit run min(cut, first_miss).
            first_miss = int(miss_pos[0])
            k = cut
            if k < MIN_BATCH or k <= first_miss:
                if reason is not None:
                    stats.note_batch_fallback(reason)
                k = min(k, first_miss)
            else:
                # Handoff trim and prefetcher replay.  The trim guarantees
                # every miss fill lands strictly before the post-run issue
                # attempt, so the MSHR files are genuinely empty (and all
                # tracker/audit times in the past) when the event engine
                # resumes.  The prefetcher replay runs the real table
                # forward over the run's misses; an emission cuts the run
                # so the emitting access trains the prefetcher — and
                # issues its prefetches — on the scalar path.  A shorter
                # trim invalidates the replay (fewer observes), hence the
                # restore-and-redo loop; it terminates because the cut
                # only ever shrinks.  A decline leaves the hit prefix.
                fills = np.where(hit, -np.inf, completion)
                pf = core.prefetcher
                pf_active = pf.enabled
                snap = pf.snapshot() if pf_active else None
                replayed = False
                gaps_ns = self._gaps_ns_arr
                while True:
                    if start + k < self._n:
                        fill_run_max = np.maximum.accumulate(fills[:k])
                        t_next_arr = t[:k] + gaps_ns[start + 1 : start + k + 1]
                        good = np.flatnonzero(fill_run_max < t_next_arr)
                        if not len(good) or good[-1] + 1 < MIN_BATCH:
                            stats.note_batch_fallback("handoff")
                            k = first_miss
                            break
                        k = int(good[-1]) + 1
                    if k <= first_miss or not pf_active:
                        break
                    if replayed:
                        pf.restore(snap)
                    in_run = miss_pos[miss_pos < k]
                    emit = pf.observe_replay(lines[in_run])
                    replayed = True
                    if emit is None:
                        break
                    k_new = int(in_run[emit])
                    if k_new < MIN_BATCH or k_new <= first_miss:
                        stats.note_batch_fallback("prefetcher")
                        k = first_miss
                        break
                    k = k_new
                if replayed and k <= first_miss:
                    pf.restore(snap)
            if k > first_miss:
                misses = (hit, miss_pos, l2h_pos, l2m_pos, f1_miss, c, admit, latency)

        if k < MIN_BATCH:
            self._skip_until = start + BATCH_BACKOFF
            return 0
        return self._commit_run(start, k, core, lines, t, completion, misses)

    def _commit_run(
        self,
        start: int,
        k: int,
        core: "_CoreSlice",
        lines: np.ndarray,
        t: np.ndarray,
        completion: np.ndarray,
        misses: Optional[Tuple[np.ndarray, ...]],
    ) -> int:
        """Apply a verified run's state, stats and handoff events.

        ``misses`` is ``None`` for a run of L1 hits, which needs one
        deferred LRU/dirty touch.  Otherwise it holds the miss plan
        ``(hit, miss_pos, l2h_pos, l2m_pos, f1_miss, c, admit,
        latency)`` at full lookahead; position arrays are sorted, so
        restricting to positions ``< k`` always selects a *prefix* of
        the per-miss arrays (``f1_miss``, ``c``, ``admit``,
        ``latency``) — the truncated plan is exactly what
        :meth:`~repro.sim.memctrl.MemoryController.plan_batch` would
        have produced for the shorter run.
        """
        ctx = self.ctx
        hierarchy = self.hierarchy
        stats = hierarchy.stats
        end = start + k
        if misses is None:
            core.l1_array.touch_batch(lines[:k], self._writes_arr[start:end])
            n_miss = 0
        else:
            hit, miss_pos, l2h_pos, l2m_pos, f1_miss, c, admit, latency = misses
            mp = miss_pos[miss_pos < k]
            n_miss = len(mp)
            l2m = l2m_pos[l2m_pos < k]
            n_l2m = len(l2m)
            l2h = l2h_pos[l2h_pos < k]
            f1 = f1_miss[:n_miss]
            hierarchy.memctrl.commit_batch(t[l2m], admit[:n_l2m], latency[:n_l2m])
            core.l1_mshr.allocate_batch(t[mp], lines[mp])
            core.l1_mshr.release_batch(f1)
            core.l2_mshr.allocate_batch(t[l2m], lines[l2m])
            core.l2_mshr.release_batch(c[:n_l2m])
            # L1: hit touches interleave with miss fills in event-time
            # order; L2: hit-lookup touches (L2-hit misses) interleave
            # with L2 fills.  L2-miss lookups mutate nothing and are
            # elided.
            hit_pos = np.flatnonzero(hit[:k])
            self._replay_array(
                core.l1_array, t[hit_pos], lines[hit_pos], f1, lines[mp]
            )
            self._replay_array(
                core.l2_array, t[l2h], lines[l2h], c[:n_l2m], lines[l2m]
            )
            stats.l1.misses += n_miss
            stats.l2.hits += len(l2h)
            stats.l2.misses += n_l2m
            stats.batch_miss_accesses += k

        stats.l1.hits += k - n_miss
        stats.batch_accesses += k
        if self._san is not None:
            self._san.batch_issued += k
        core_stats = self.core_stats
        core_stats.issued_accesses += k
        # Chained left-to-right adds via cumsum: bit-identical to the
        # event path's one-at-a-time accumulation.
        acc = np.empty(k + 1, dtype=np.float64)
        acc[0] = core_stats.compute_cycles
        acc[1:] = self._gap_arr[start:end]
        core_stats.compute_cycles = float(np.cumsum(acc)[-1])
        ctx.next_idx = end

        completion = completion[:k]
        engine = self.engine
        if end >= self._n:
            # Final run: one drain event at the last completion time
            # replaces k individual decrements.  The intermediate
            # in_flight values have no readers (the trace is exhausted
            # and nothing else touches this context), and fills are not
            # monotone in issue order, so the max is the event path's
            # final _on_complete time exactly.
            ctx.in_flight += k

            def _drain() -> None:
                ctx.in_flight -= k
                self._maybe_finish()

            engine.schedule_at(float(completion.max()), _drain)
            return k

        # Handoff: completions landing at or before the next attempt
        # would have fired before it (earlier tie-break seq), so they
        # are pure decrements with no observable effect — elide them.
        # Strictly later ones get real events at their exact times so
        # post-run window checks and stall wakeups see the true
        # in-flight trajectory.  The trim guaranteed every *miss*
        # completion lands before t_next, so the stragglers are all hits.
        t_next = float(t[k - 1]) + self._gaps_ns[end]
        out_times = completion[completion > t_next]
        ctx.in_flight += len(out_times)
        on_complete = self._on_complete
        for when in out_times.tolist():
            engine.schedule_at(when, on_complete)
        engine.schedule_at(t_next, self._try_issue)
        return k

    def _replay_array(
        self,
        array: "CacheArray",
        touch_t: np.ndarray,
        touch_lines: np.ndarray,
        fill_t: np.ndarray,
        fill_lines: np.ndarray,
    ) -> None:
        """Replay a run's hit touches and fills onto one cache array.

        Touches are queued via ``touch_batch`` in segments split at each
        fill's event time, and fills between consecutive segments are
        applied as one ``fill_batch`` (which flushes the queued touches
        first), so the array steps through exactly the scalar event
        sequence: every touch whose issue time precedes a fill is
        applied before it.  Ties between a touch and a fill were cut
        from the run, and duplicate fill instants too, so the time
        ordering here is total.  The ``fill_batch`` preconditions hold
        by planning: fill lines are distinct (duplicate-miss cut),
        absent (they missed against the snapshot and only other lines
        fill during the run), and the run was only planned while both
        arrays were provably all-clean, so no fill can evict a dirty
        victim (``fill_batch`` raises if one would).
        """
        n_touch = len(touch_lines)
        if not len(fill_lines):
            if n_touch:
                array.touch_batch(touch_lines, np.zeros(n_touch, dtype=bool))
            return
        order = np.argsort(fill_t, kind="stable")
        sorted_fills = fill_lines[order]
        if not n_touch:
            # A cold run: no touch to interleave, the fills apply at once.
            array.fill_batch(sorted_fills)
            return
        no_writes = np.zeros(n_touch, dtype=bool)
        boundary = np.searchsorted(touch_t, fill_t[order], side="left")
        starts = np.flatnonzero(np.r_[True, boundary[1:] != boundary[:-1]])
        stops = np.r_[starts[1:], len(sorted_fills)]
        prev = 0
        for lo, hi in zip(starts.tolist(), stops.tolist()):
            b = int(boundary[lo])
            if b > prev:
                array.touch_batch(touch_lines[prev:b], no_writes[prev:b])
                prev = b
            array.fill_batch(sorted_fills[lo:hi])
        if prev < n_touch:
            array.touch_batch(touch_lines[prev:], no_writes[prev:])

    def _retry_after_mshr(self) -> None:
        if not self.ctx.done:
            self._try_issue()

    def _on_prefetch_done(self) -> None:
        """Software-prefetch retirement: no window slot to release."""
        self._maybe_finish()

    def _on_complete(self) -> None:
        ctx = self.ctx
        ctx.in_flight -= 1
        if ctx.in_flight < 0:
            raise SimulationError("thread in_flight went negative")
        if ctx.waiting_window:
            self._try_issue()
        elif not ctx.done and ctx.next_idx >= self._n and ctx.in_flight == 0:
            # _maybe_finish(), inlined: this runs once per demand access.
            self._finish()

    # -- completion -----------------------------------------------------------

    def _maybe_finish(self) -> None:
        ctx = self.ctx
        if not ctx.done and ctx.next_idx >= self._n and ctx.in_flight == 0:
            self._finish()

    def _finish(self) -> None:
        self.ctx.done = True
        self.core_stats.finished = True
        self.core_stats.finish_time_ns = self.engine.now
        self.hierarchy.thread_finished()
