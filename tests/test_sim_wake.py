"""L1-fill wakeups run in place vs. one zero-delay event each.

``Engine.wake`` runs the waiters an L1 fill releases at once when no
queued event is due at the current instant, and schedules them
otherwise.  :class:`SchedulingEngine` always schedules them, the
engine's former behaviour.  Every observable must match, the batch
planner must engage exactly as before, and the event count must drop
by exactly the wakeups run in place.
"""

import math
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings

from repro.machines import get_machine
from repro.sim import Engine, SimConfig
from repro.sim import hierarchy as hierarchy_module
from repro.sim.coltrace import KIND_CODES, AccessColumns, columnar_trace
from repro.sim.hierarchy import Hierarchy
from repro.sim.trace import AccessKind

from .test_sim_admission import _EQUIVALENCE, _conflict_trace

SKL = get_machine("skl")


class SchedulingEngine(Engine):
    """Schedules every wakeup as a zero-delay event (test only)."""

    def wake(self, callbacks):
        for callback in callbacks:
            self.schedule(0.0, callback)


class CountingEngine(Engine):
    """Counts the wakeups offered to :meth:`Engine.wake` (test only)."""

    def __init__(self):
        super().__init__()
        self.offered = 0

    def wake(self, callbacks):
        self.offered += len(callbacks)
        super().wake(callbacks)


def _run_with(engine_cls, trace, config):
    with mock.patch.object(hierarchy_module, "Engine", engine_cls):
        hierarchy = Hierarchy(config)
    assert isinstance(hierarchy.engine, engine_cls)
    return hierarchy.run(trace), hierarchy.engine


def _check_equivalent(trace, config):
    """Run ``trace`` both ways; returns the in-place run's stats and engine."""
    in_place, engine = _run_with(CountingEngine, trace, config)
    scheduled, _ = _run_with(SchedulingEngine, trace, config)
    assert in_place.fingerprint() == scheduled.fingerprint()
    assert in_place.elapsed_ns == scheduled.elapsed_ns
    assert scheduled.wakeups_in_place == 0
    assert in_place.wakeups_in_place == engine.wakeups_in_place
    assert scheduled.events_fired - in_place.events_fired == in_place.wakeups_in_place
    for field in ("batch_accesses", "batch_miss_accesses", "batch_fallbacks"):
        assert getattr(in_place, field) == getattr(scheduled, field)
    return in_place, engine


def _check_random(seed, n, cores, smt, store_rate, hot, hw_prefetch, batch):
    trace = _conflict_trace(seed, n, cores * smt, store_rate, hot)
    config = SimConfig(
        machine=SKL,
        sim_cores=cores,
        threads_per_core=smt,
        window_per_core=8,
        hw_prefetch=hw_prefetch,
        batch=batch,
    )
    return _check_equivalent(trace, config)


@settings(max_examples=100, deadline=None)
@given(**_EQUIVALENCE)
def test_in_place_wakeups_match_scheduled_wakeups(**case):
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "0"}):
        _check_random(**case)


@settings(max_examples=25, deadline=None)
@given(**_EQUIVALENCE)
def test_in_place_wakeups_match_scheduled_wakeups_sanitized(**case):
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "1"}):
        _check_random(**case)


def test_random_traces_reach_both_wake_paths():
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "0"}):
        stats, engine = _check_random(3, 500, 2, 1, 0.2, 0.5, True, True)
    assert 0 < stats.wakeups_in_place < engine.offered


def _columns(*accesses):
    """One thread's trace from ``(kind, address, gap_cycles)`` triples."""
    kinds, addrs, gaps = zip(*accesses)
    return AccessColumns(
        np.array(addrs), np.array([KIND_CODES[k] for k in kinds]), np.array(gaps)
    )


def test_wakeup_behind_an_event_due_at_the_same_instant_is_scheduled():
    # Core 0 prefetches line X into its L2, loads M (a memory miss),
    # loads X (an L2 hit whose L1 fill lands at T) and tries Y at once:
    # with M and X in flight its two-entry window is full, so only X's
    # fill, through its waiter, issues Y.  Core 1 issues P just after
    # X, then Z timed to land at exactly T.  Z's attempt was queued
    # after X's fill but is due when it fires, so X's waiter must queue
    # behind it: Z takes the controller's next slot and Y the one after.
    # Run in place, the waiter would hand Y the earlier slot.
    load, swpf = AccessKind.LOAD, AccessKind.SWPF_L2
    freq = SKL.frequency_ghz
    t_x = 2000.0 / freq + 1.0 / freq
    fill = t_x + hierarchy_module.L2_HIT_CYCLES / freq
    p_gap = (t_x + 1.0) * freq
    z_gap = (fill - p_gap / freq) * freq
    while p_gap / freq + z_gap / freq != fill:
        up = p_gap / freq + z_gap / freq < fill
        z_gap = math.nextafter(z_gap, math.inf if up else 0.0)
    core0 = _columns(
        (swpf, 0x10000, 0.0), (load, 0x20000, 2000.0), (load, 0x10000, 1.0),
        (load, 0x30000, 0.0),
    )
    core1 = _columns((load, 1 << 32, p_gap), (load, (1 << 32) + 0x40000, z_gap))
    trace = columnar_trace([core0, core1], routine="wake", line_bytes=SKL.line_bytes)
    config = SimConfig(
        machine=SKL, sim_cores=2, window_per_core=2, hw_prefetch=False, batch=False
    )
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "0"}):
        stats, engine = _check_equivalent(trace, config)
    assert stats.wakeups_in_place < engine.offered
