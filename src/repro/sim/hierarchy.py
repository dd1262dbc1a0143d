"""Cache-hierarchy wiring and the top-level ``run_trace`` entry point.

One :class:`Hierarchy` instance simulates a *slice* of the machine: a
configurable number of cores (each with private L1/L2 arrays, L1/L2 MSHR
files, and an L2 stream prefetcher) sharing one memory controller whose
bandwidth is the socket bandwidth scaled to the simulated core count.
Scaling keeps per-core physics (MSHR limits, loaded latency, prefetch
coverage) identical to the full machine while keeping Python-simulation
cost manageable (DESIGN.md §5).

Request flow (per demand access)::

    core issue ──L1 hit──────────────────────────────▶ complete
        │ miss
        ├─ L1 MSHR merge (secondary miss) ───────────▶ complete on fill
        ├─ L1 MSHR full ────────────────────────────▶ core stalls, retries
        └─ allocate L1 MSHR ──▶ L2 lookup
               ├─ L2 hit ──────────────▶ fill L1, free L1 MSHR, complete
               ├─ L2 MSHR merge (incl. in-flight prefetch = "late hit")
               ├─ L2 MSHR full ────────▶ demand waits (backpressure)
               └─ allocate L2 MSHR ──▶ memory controller (FIFO slot and
                        │                 loaded latency fixed on request)
                        └─ one event at slot + latency ▶ fill L2, fill L1 …

Software prefetches to L2 (``AccessKind.SWPF_L2``) skip the L1 MSHR file
entirely — this is the mechanism behind the paper's ISx optimization,
which moves the bottleneck from the 10–12 L1 MSHRs to the larger L2
file.  Hardware prefetches are generated by observing demand accesses at
the L2 and are dropped when no L2 MSHR is free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from ..analysis.sanitizer import RunSanitizer, sanitize_enabled
from ..errors import ConfigurationError, SimulationError, TraceError
from ..machines.spec import MachineSpec
from .cache import CacheArray
from .coltrace import ColumnarTrace
from .core import ThreadContext, ThreadDriver
from .engine import Engine
from .memctrl import MemoryController
from .mshr import MshrFile
from .prefetcher import StreamPrefetcher
from .stats import CoreStats, SimStats
from .tlb import Tlb
from .trace import AccessKind

# Identity compares against module constants: ``kind is _STORE`` skips
# the enum ``__eq__`` call ``kind == AccessKind.STORE`` makes.
_STORE = AccessKind.STORE
_SWPF_L1 = AccessKind.SWPF_L1
_SWPF_L2 = AccessKind.SWPF_L2

#: Load-to-use latencies of an L1 and an L2 hit, in core cycles.
L1_HIT_CYCLES = 4.0
L2_HIT_CYCLES = 14.0


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    The hierarchy is L1 and L2 per core, then memory: there is no L3,
    so L2 misses are memory traffic.  Hit latencies are the module's
    :data:`L1_HIT_CYCLES` and :data:`L2_HIT_CYCLES` on every machine.

    Attributes
    ----------
    machine:
        The machine model to slice.
    sim_cores:
        Cores actually simulated; memory bandwidth is scaled to
        ``sim_cores / machine.active_cores`` of the socket.
    threads_per_core:
        SMT ways to run (must not exceed the machine's ``smt_ways``).
    window_per_core:
        Outstanding demand accesses one core can sustain (ROB/load-queue
        share); divided evenly among SMT threads.
    hw_prefetch:
        Enable the L2 stream prefetcher (the paper toggles this to
        classify routines).  Its degree and distance are the
        :class:`~repro.sim.prefetcher.StreamPrefetcher` defaults.
    tlb_entries:
        Per-core TLB entries (4 KiB pages); 0 disables translation
        modeling.  When enabled, TLB misses issue page-walk memory reads
        whose traffic lands in the bandwidth counters (paper footnote 4).
    batch:
        Enable the batch-stepping fast path: one planner retires runs
        of provably interaction-free accesses vectorized instead of one
        event at a time, with bit-identical observables
        (``SimStats.fingerprint()`` equality) under the conditions
        docs/PERFORMANCE.md lists — the one known exception is a hit
        run retired while another core has events queued.  Inert under
        SMT — threads sharing a core's L1/TLB interleave at event
        granularity, so the simulator falls back to the event path when
        ``threads_per_core > 1``; the fallback is recorded in
        ``SimStats.batch_fallbacks`` (and printed by the CLI under
        ``-v``) instead of being silent.
    batch_miss:
        Let batched runs hold L1 misses: the MSHR allocate/release
        stream, the memory controller's admission and loaded-latency
        arithmetic, and the L2 lookup are replayed closed-form with the
        event path's exact chained-float arithmetic.  Without it a
        batched run holds L1 hits only.  Requires ``batch``.  A run is
        cut wherever the plan could diverge (pending events, dirty
        lines, prefetcher emission, timing ties…) — see
        docs/PERFORMANCE.md for the full table; every cut is tallied by
        reason in ``SimStats.batch_fallbacks``.
    """

    machine: MachineSpec
    sim_cores: int = 2
    threads_per_core: int = 1
    window_per_core: int = 16
    hw_prefetch: bool = True
    tlb_entries: int = 0
    batch: bool = True
    batch_miss: bool = True

    def __post_init__(self) -> None:
        if self.sim_cores <= 0:
            raise ConfigurationError("sim_cores must be positive")
        if self.sim_cores > self.machine.active_cores:
            raise ConfigurationError(
                f"sim_cores {self.sim_cores} exceeds machine cores "
                f"{self.machine.active_cores}"
            )
        if not 1 <= self.threads_per_core <= self.machine.smt_ways:
            raise ConfigurationError(
                f"threads_per_core must be in 1..{self.machine.smt_ways}"
            )
        if self.window_per_core < self.threads_per_core:
            raise ConfigurationError("window_per_core must cover all threads")

    @property
    def window_per_thread(self) -> int:
        """Outstanding-demand window share per SMT thread."""
        return max(1, self.window_per_core // self.threads_per_core)

    @property
    def total_threads(self) -> int:
        """Hardware threads across the simulated slice."""
        return self.sim_cores * self.threads_per_core


class _CoreSlice:
    """Private caches, MSHR files and prefetcher of one simulated core."""

    __slots__ = (
        "core_id",
        "l1_array",
        "l2_array",
        "l1_mshr",
        "l2_mshr",
        "prefetcher",
        "tlb",
        "walks_in_flight",
    )

    def __init__(self, core_id: int, config: SimConfig) -> None:
        machine = config.machine
        self.core_id = core_id
        self.l1_array = CacheArray(machine.l1, f"core{core_id}.L1")
        self.l2_array = CacheArray(machine.l2, f"core{core_id}.L2")
        self.l1_mshr = MshrFile(f"core{core_id}.L1-MSHR", machine.l1.mshrs)
        self.l2_mshr = MshrFile(f"core{core_id}.L2-MSHR", machine.l2.mshrs)
        self.prefetcher = StreamPrefetcher(
            machine.line_bytes,
            max_streams=machine.prefetch_streams,
            enabled=config.hw_prefetch,
        )
        self.tlb = Tlb(config.tlb_entries) if config.tlb_entries > 0 else None
        #: Page walks issued but not yet filled; the batch fast path
        #: requires 0 (a pending walk re-enters the L1 at fill time).
        self.walks_in_flight = 0


class Hierarchy:
    """One simulated machine slice; see module docstring for the flow."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.machine = config.machine
        self.engine = Engine()
        self.stats = SimStats()
        self.line_bytes = self.machine.line_bytes

        bw_fraction = config.sim_cores / self.machine.active_cores
        self.memctrl = MemoryController(
            self.engine,
            self.machine.latency_model,
            peak_bw_bytes=self.machine.memory.peak_bw_bytes * bw_fraction,
            achievable_fraction=self.machine.memory.achievable_fraction,
            line_bytes=self.line_bytes,
            stats=self.stats.memory,
        )

        self.cores: List[_CoreSlice] = [
            _CoreSlice(i, config) for i in range(config.sim_cores)
        ]
        for core in self.cores:
            self.stats.l1_occupancy.append(core.l1_mshr.tracker)
            self.stats.l2_occupancy.append(core.l2_mshr.tracker)

        self._threads_remaining = 0
        self.l1_hit_ns = L1_HIT_CYCLES / self.machine.frequency_ghz
        self._l2_hit_ns = L2_HIT_CYCLES / self.machine.frequency_ghz
        #: Batch-stepping engages only when SMT is off: threads sharing
        #: a core's L1/TLB must interleave at event granularity.
        self.batch_enabled = config.batch and config.threads_per_core == 1
        if config.batch and not self.batch_enabled:
            # Not silent: the run-level reason lands in the stats so the
            # CLI (and anyone diffing SimStats) can see why a requested
            # fast path never engaged.
            self.stats.note_batch_fallback("smt")
        self.batch_miss_enabled = self.batch_enabled and config.batch_miss
        #: Opt-in runtime invariant checking (reprosan).  The sanitizer
        #: attaches observation-only hooks to the engine, MSHR files,
        #: memory controller and batch-touched arrays; a sanitized run
        #: is fingerprint-identical to an unsanitized one.
        self.sanitizer: Optional[RunSanitizer] = (
            RunSanitizer(self) if sanitize_enabled() else None
        )

    # -- plumbing helpers -------------------------------------------------------

    def thread_finished(self) -> None:
        """Bookkeeping callback: one thread completed its trace."""
        self._threads_remaining -= 1

    # -- access path ------------------------------------------------------------

    def issue_access(
        self,
        core: _CoreSlice,
        addr: int,
        kind: AccessKind,
        on_complete: Callable[[], None],
    ) -> bool:
        """Issue one access on ``core``; returns False if its L1 MSHRs are full.

        Takes the access fields directly (no ``Access`` object) so the
        core's array-indexed issue loop stays allocation-free; the
        driver passes its own core slice.  ``on_complete`` fires when
        the access retires from the core's perspective (data in L1 for
        demand; immediately for software prefetches, which are
        non-blocking).
        """
        line = core.l1_array.line_of(addr)
        # Address translation first: a TLB miss issues a page-walk
        # memory read, and the demand access proceeds only once the PTE
        # arrives.  Walk traffic lands in the demand-read bandwidth
        # counters, per paper footnote 4.
        if (
            core.tlb is not None
            and kind.is_demand
            and not core.tlb.access(addr)
        ):
            core.tlb.stats.walks_issued += 1
            core.walks_in_flight += 1
            pte_line = core.l1_array.line_of(core.tlb.pte_address(addr))

            def _issue_after_walk() -> None:
                # The core already believes the access is in flight, so
                # an L1-MSHR-full condition here is retried internally.
                if not self._issue_translated(core, kind, line, on_complete):
                    core.l1_mshr.wait_for_free(_issue_after_walk)

            def _walk_filled() -> None:
                # Decrement exactly once (the PTE arrived); MSHR-full
                # retries above must not double-count.
                core.walks_in_flight -= 1
                _issue_after_walk()

            self._access_l2(core, pte_line, False, False, _walk_filled)
            return True

        return self._issue_translated(core, kind, line, on_complete)

    def _issue_translated(
        self,
        core: _CoreSlice,
        kind: AccessKind,
        line: int,
        on_complete: Callable[[], None],
    ) -> bool:
        """Post-translation issue path (the pre-TLB behaviour)."""
        if kind is _SWPF_L2:
            # L2-targeted software prefetch: bypasses L1 MSHRs entirely.
            self.stats.sw_prefetches_issued += 1
            self._access_l2(core, line, False, True, None)
            self.engine.schedule(0.0, on_complete)
            return True

        is_write = kind is _STORE
        is_swpf_l1 = kind is _SWPF_L1
        if is_swpf_l1:
            self.stats.sw_prefetches_issued += 1

        if core.l1_array.access(line, is_write):
            self.stats.l1.hits += 1
            self.engine.schedule(self.l1_hit_ns, on_complete)
            return True

        # L1 miss path.
        existing = core.l1_mshr.lookup(line)
        if existing is not None:
            self.stats.l1.misses += 1
            done = on_complete if not is_swpf_l1 else None
            core.l1_mshr.merge(line, done, demand=not is_swpf_l1)
            if is_swpf_l1:
                self.engine.schedule(0.0, on_complete)
            return True

        if core.l1_mshr.is_full:
            if is_swpf_l1:
                # Prefetch hints are droppable; don't stall the core.
                self.engine.schedule(0.0, on_complete)
                return True
            return False

        self.stats.l1.misses += 1
        entry = core.l1_mshr.allocate(self.engine.now, line, is_prefetch=is_swpf_l1)
        if not is_swpf_l1:
            entry.waiters.append(on_complete)
        else:
            self.engine.schedule(0.0, on_complete)
        self._access_l2(
            core, line, is_write, False, partial(self._fill_l1, core, line, is_write)
        )
        return True

    def _fill_l1(self, core: _CoreSlice, line: int, dirty: bool) -> None:
        """Data arrived at L1: install line, free MSHR, wake waiters."""
        victim = core.l1_array.fill(line, dirty)
        if victim is not None:
            # Dirty L1 eviction lands in L2 (write-back, write-allocate
            # into the larger level); mark dirty there if resident.
            if not core.l2_array.access(victim, True):
                core.l2_array.fill(victim, True)
        entry = core.l1_mshr.release(self.engine.now, line)
        for waiter in entry.waiters:
            self.engine.schedule(0.0, waiter)

    def _access_l2(
        self,
        core: _CoreSlice,
        line: int,
        is_write: bool,
        is_prefetch: bool,
        on_fill: Optional[Callable[[], None]],
    ) -> None:
        """L2 lookup for a line that missed (or bypassed) the L1."""
        if not is_prefetch:
            self._train_prefetcher(core, line)

        if core.l2_array.access(line, is_write):
            if is_prefetch:
                self.stats.l2.prefetch_hits += 1
            else:
                self.stats.l2.hits += 1
                if on_fill is not None:
                    self.engine.schedule(self._l2_hit_ns, on_fill)
            return

        existing = core.l2_mshr.lookup(line)
        if existing is not None:
            if is_prefetch:
                self.stats.l2.prefetch_misses += 1
                return  # already in flight; nothing to do
            self.stats.l2.misses += 1
            if existing.is_prefetch:
                self.stats.l2.late_prefetch_hits += 1
            core.l2_mshr.merge(line, on_fill, demand=True)
            return

        if core.l2_mshr.is_full:
            if is_prefetch:
                return  # prefetch hints are dropped under pressure
            # Demand backpressure: hold the L1 MSHR, retry when one frees.
            self.stats.l2.mshr_full_stalls += 1
            stall_start = self.engine.now

            def _retry() -> None:
                self.stats.l2.mshr_full_stall_ns += self.engine.now - stall_start
                self._access_l2(core, line, is_write, False, on_fill)

            core.l2_mshr.wait_for_free(_retry)
            return

        if is_prefetch:
            self.stats.l2.prefetch_misses += 1
        else:
            self.stats.l2.misses += 1
        entry = core.l2_mshr.allocate(self.engine.now, line, is_prefetch=is_prefetch)
        if on_fill is not None:
            entry.waiters.append(on_fill)
        self.memctrl.request(
            is_write, is_prefetch, partial(self._fill_l2, core, line, is_write)
        )

    def _fill_l2(self, core: _CoreSlice, line: int, dirty: bool) -> None:
        """Data arrived at L2: install, free MSHR, propagate fills."""
        if core.l2_array.fill(line, dirty) is not None:
            self.memctrl.writeback()
        entry = core.l2_mshr.release(self.engine.now, line)
        for waiter in entry.waiters:
            self.engine.schedule(self._l2_hit_ns, waiter)

    def _train_prefetcher(self, core: _CoreSlice, line: int) -> None:
        """Feed the stream prefetcher and issue its candidate prefetches."""
        # Deferred-replay barrier before the residency probes below: a
        # batched miss run leaves its L2-hit touches queued on the L2
        # array (``ThreadDriver._commit_run`` replays them through
        # ``_replay_array``), and the probe contract (and the BARRIER
        # lint rule) require scalar residency reads to be flush-preceded.
        core.l2_array.flush_batch()
        for target in core.prefetcher.observe(line):
            if core.l2_array.probe(target) or core.l2_mshr.lookup(target) is not None:
                continue
            if core.l2_mshr.is_full:
                break
            self.stats.hw_prefetches_issued += 1
            self._access_l2(core, target, False, True, None)

    # -- running ------------------------------------------------------------------

    def run(self, trace: ColumnarTrace, *, max_events: int = 50_000_000) -> SimStats:
        """Run a trace to completion and return the collected stats."""
        # Host-side observability only: wall_s never enters the stats
        # fingerprint or the result cache key (stats._NON_SEMANTIC_FIELDS).
        wall_start = time.perf_counter()  # repro: noqa[DET001]
        if trace.line_bytes != self.line_bytes:
            raise TraceError(
                f"trace generated for {trace.line_bytes}B lines but machine "
                f"has {self.line_bytes}B lines"
            )
        if len(trace.threads) != self.config.total_threads:
            raise TraceError(
                f"trace has {len(trace.threads)} threads but config expects "
                f"{self.config.total_threads} "
                f"({self.config.sim_cores} cores x {self.config.threads_per_core} SMT)"
            )
        self.stats.routine = trace.routine
        self._threads_remaining = len(trace.threads)
        if self.sanitizer is not None:
            self.sanitizer.begin_run(trace)

        window = self.config.window_per_thread
        for i, thread_trace in enumerate(trace.threads):
            core_id = i % self.config.sim_cores
            core_stats = CoreStats()
            self.stats.cores.append(core_stats)
            ctx = ThreadContext(trace=thread_trace, core_id=core_id, window=window)
            ThreadDriver(self, ctx, core_stats).start()

        self.engine.run(max_events=max_events)
        if self._threads_remaining != 0:
            raise SimulationError(
                f"{self._threads_remaining} threads never finished (deadlock?)"
            )
        self.stats.finalize(self.engine.now)
        self.stats.events_fired = self.engine.events_fired
        if self.sanitizer is not None:
            self.sanitizer.finalize(self.stats, self.engine.now)
        self.stats.wall_s = time.perf_counter() - wall_start  # repro: noqa[DET001]
        return self.stats


def run_trace(
    trace: ColumnarTrace,
    config: SimConfig,
    *,
    max_events: int = 50_000_000,
) -> SimStats:
    """Convenience wrapper: build a hierarchy, run ``trace``, return stats.

    For repeated runs over identical inputs prefer
    :func:`repro.perf.cache.cached_run_trace`, which memoizes the result
    on disk and replays it bit-for-bit.
    """
    return Hierarchy(config).run(trace, max_events=max_events)
