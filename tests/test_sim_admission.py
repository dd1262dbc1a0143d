"""Memory-controller admission settled at request time vs. an admission event.

The controller is a FIFO, so a request's slot, loaded latency and
completion time are fixed when the request is made, and
``MemoryController.request`` schedules only the completion.
:class:`TwoEventController` restores the former two-event form, where
``request`` scheduled an admission event at the slot time and that
event noted the admission, read the curve and scheduled the completion.
Every observable must match, and the event count must drop by exactly
one per admission made through ``request``.  The two controllers queue
different events, so the engine runs different L1-fill wakeups in place
(``SimStats.wakeups_in_place``): the drop is counted over events plus
those wakeups.  The one exception is an
exact float tie, pinned below: the completion's tie-break sequence
number is now drawn at request time, not at the slot.
"""

import math
import os
import random
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.machines import get_machine
from repro.sim import SimConfig
from repro.sim import hierarchy as hierarchy_module
from repro.sim.coltrace import KIND_CODES, AccessColumns, columnar_trace
from repro.sim.hierarchy import Hierarchy
from repro.sim.memctrl import MemoryController
from repro.sim.trace import AccessKind

SKL = get_machine("skl")


class TwoEventController(MemoryController):
    """Admission as a separate engine event at the slot time (test only).

    ``request`` still computes the slot and wraps the audit; only the
    call to :meth:`MemoryController._admit` is deferred to an event at
    ``admit_ns``, where ``engine.now == admit_ns`` and the completion's
    ``admit_ns + latency`` is the float the former ``schedule(latency)``
    produced.  Writebacks note their admission in their event too, so
    the deque stays time-ordered.
    """

    __slots__ = ("scalar_admissions",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Admissions made through request() (batched ones excluded).
        self.scalar_admissions = 0

    def _admit(self, queued_ns, admit_ns, *args):
        self.scalar_admissions += 1
        self.engine.schedule_at(
            admit_ns, partial(MemoryController._admit, self, queued_ns, admit_ns, *args)
        )

    def writeback(self):
        now = self.engine.now
        admit = max(now, self._next_free_ns)
        self._next_free_ns = admit + self.slot_ns
        if self._audit is not None:
            self._audit.writebacks += 1

        def _admit():
            self._note_admission(self.engine.now, self.line_bytes)
            self.stats.demand_write_bytes += self.line_bytes
            self.stats.requests += 1

        self.engine.schedule_at(admit, _admit)


def run_two_event(trace, config):
    """Run ``trace`` with the two-event controller; returns (stats, controller)."""
    with mock.patch.object(hierarchy_module, "MemoryController", TwoEventController):
        hierarchy = Hierarchy(config)
    assert isinstance(hierarchy.memctrl, TwoEventController)
    return hierarchy.run(trace), hierarchy.memctrl


def _conflict_trace(seed, n, threads, store_rate, hot):
    """Hot lines, L2-aliasing lines and a stream per thread.

    A share ``hot`` of the accesses goes to 64 hot lines, which give the
    batch planner hit runs.  Of the rest, half go to 40 lines that fall
    into two L2 sets of 16 ways (and two L1 sets), so dirty lines get
    evicted from the L2 and writebacks happen; the other half walk a
    stream that trains the hardware prefetcher.
    """
    rng = random.Random(seed)
    line = SKL.line_bytes
    l2_sets = SKL.l2.size_bytes // (line * SKL.l2.associativity)
    load, store, swpf = (
        KIND_CODES[k] for k in (AccessKind.LOAD, AccessKind.STORE, AccessKind.SWPF_L2)
    )
    runs = []
    for t in range(threads):
        base = t * (1 << 32)
        stream = 1 << 20
        addrs, codes, gaps = [], [], []
        for _ in range(n):
            r = rng.random()
            if r < hot:
                index = (1 << 24) + rng.randrange(64)
            elif r < (1 + hot) / 2:
                index = rng.randrange(20) * l2_sets + rng.randrange(2)
            else:
                stream += 1
                index = stream
            addrs.append(base + index * line)
            r = rng.random()
            codes.append(store if r < store_rate else swpf if r > 0.97 else load)
            gaps.append(float(rng.randrange(0, 14)))
        runs.append(AccessColumns(np.array(addrs), np.array(codes), np.array(gaps)))
    return columnar_trace(runs, routine="admission", line_bytes=line)


def _check_equivalent(seed, n, cores, smt, store_rate, hot, hw_prefetch, batch):
    trace = _conflict_trace(seed, n, cores * smt, store_rate, hot)
    config = SimConfig(
        machine=SKL,
        sim_cores=cores,
        threads_per_core=smt,
        window_per_core=8,
        hw_prefetch=hw_prefetch,
        batch=batch,
    )
    hierarchy = Hierarchy(config)
    sanitized = os.environ["REPRO_SANITIZE"] == "1"
    assert (hierarchy.sanitizer is not None) == sanitized
    one = hierarchy.run(trace)
    two, controller = run_two_event(trace, config)
    assert one.fingerprint() == two.fingerprint()
    assert one.elapsed_ns == two.elapsed_ns
    fired_one = one.events_fired + one.wakeups_in_place
    fired_two = two.events_fired + two.wakeups_in_place
    assert fired_two - fired_one == controller.scalar_admissions
    return one


_EQUIVALENCE = dict(
    seed=st.integers(0, 2**20),
    n=st.integers(60, 500),
    cores=st.integers(1, 2),
    smt=st.integers(1, 2),
    store_rate=st.sampled_from([0.0, 0.2, 0.5]),
    hot=st.sampled_from([0.5, 0.9, 0.995]),
    hw_prefetch=st.booleans(),
    batch=st.booleans(),
)

# A failing case is reported as found: shrinking one replays whole
# simulations and can run for many minutes.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=100, deadline=None, phases=_NO_SHRINK)
@given(**_EQUIVALENCE)
def test_request_time_admission_matches_admission_event(**case):
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "0"}):
        _check_equivalent(**case)


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(**_EQUIVALENCE)
def test_request_time_admission_matches_admission_event_sanitized(**case):
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "1"}):
        _check_equivalent(**case)


def test_conflict_trace_reaches_writebacks_and_batches():
    # The property's traces reach the writeback path (requests that are
    # not completions are writebacks) and the batch planner.
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "0"}):
        stats = _check_equivalent(3, 500, 2, 1, 0.5, 0.5, True, True)
        assert stats.memory.requests - stats.memory.latency_count > 0
        stats = _check_equivalent(6, 308, 1, 1, 0.0, 0.995, True, True)
        assert stats.batch_miss_accesses > 0


def _prefetch_then_load(gap_cycles):
    """An L2 software prefetch of one line, then a load of the same line."""
    swpf, load = (KIND_CODES[k] for k in (AccessKind.SWPF_L2, AccessKind.LOAD))
    run = AccessColumns(
        np.array([0x10000, 0x10000]),
        np.array([swpf, load]),
        np.array([0.0, gap_cycles]),
    )
    return columnar_trace([run], routine="tie", line_bytes=SKL.line_bytes)


def test_exact_tie_with_next_issue_fires_completion_first():
    # The prefetch's request is made at t=0 on an idle controller.  The
    # load's issue attempt, scheduled right after that request, lands
    # at exactly the request's completion time, admit + latency.  With
    # an admission event the completion's sequence number was drawn at
    # the slot, after the attempt's, so the load found the prefetch in
    # flight (a late prefetch hit).  Drawn at request time, it comes
    # first, and the load hits in the L2.  Nudged off the tie, both
    # forms agree.
    config = SimConfig(
        machine=SKL, sim_cores=1, batch=False, hw_prefetch=False, tlb_entries=0
    )
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "0"}):
        probe = Hierarchy(config)
        fired = []
        probe.memctrl.request(False, True, lambda: fired.append(probe.engine.now))
        probe.engine.run()
        (completion_ns,) = fired

        freq = SKL.frequency_ghz
        gap = completion_ns * freq
        while gap / freq != completion_ns:
            gap = math.nextafter(gap, math.inf if gap / freq < completion_ns else 0.0)
        tied = _prefetch_then_load(gap)
        one = Hierarchy(config).run(tied)
        two, controller = run_two_event(tied, config)
        assert controller.scalar_admissions == 1
        assert (two.l2.late_prefetch_hits, two.l2.hits) == (1, 0)
        assert (one.l2.late_prefetch_hits, one.l2.hits) == (0, 1)

        later = gap
        while later / freq <= completion_ns:
            later = math.nextafter(later, math.inf)
        untied = _prefetch_then_load(later)
        one = Hierarchy(config).run(untied)
        two, _ = run_two_event(untied, config)
        assert one.fingerprint() == two.fingerprint()
        assert (one.l2.late_prefetch_hits, one.l2.hits) == (0, 1)
