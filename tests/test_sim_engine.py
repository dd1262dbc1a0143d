"""Discrete-event engine semantics."""

import gc
import json
from functools import reduce

import numpy as np
import pytest

from repro.errors import SimulationError, TraceError
from repro.io.tracefile import TRACE_FILE_FORMAT, TRACE_FILE_VERSION, load_trace
from repro.machines import get_machine
from repro.sim import Engine, Hierarchy, SimConfig, run_trace
from repro.sim.coltrace import AccessColumns, ColumnarThreadTrace, columnar_trace
from repro.sim.core import ThreadDriver
from repro.units import ghz
from repro.xmem.kernels import resident_thread


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(10.0, lambda: order.append("b"))
        engine.schedule(5.0, lambda: order.append("a"))
        engine.schedule(20.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = Engine()
        order = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.schedule(7.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7.5]
        assert engine.now == 7.5

    def test_events_scheduled_during_run(self):
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, lambda: order.append("nested"))

        engine.schedule(0.0, first)
        engine.run()
        assert order == ["first", "nested"]

    def test_schedule_at_absolute(self):
        engine = Engine()
        times = []
        engine.schedule_at(3.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: engine.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            engine.run()

    def test_nan_delay_rejected(self):
        # Regression: `NaN < 0` is False, so a NaN delay used to slip
        # into the heap and break (time, seq) tie-ordering for every
        # event scheduled after it.
        with pytest.raises(SimulationError):
            Engine().schedule(float("nan"), lambda: None)

    def test_nan_absolute_time_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule_at(float("nan"), lambda: None)

    def test_queue_stays_orderable_after_rejected_nan(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.run()
        assert order == ["a", "b"]


class TestRunLimits:
    def test_max_events_guard(self):
        engine = Engine()

        def loop():
            engine.schedule(1.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_max_events_raises_on_the_first_event_past_it(self):
        engine = Engine()
        fired = []
        for t in range(5):
            engine.schedule(float(t), lambda t=t: fired.append(t))
        with pytest.raises(SimulationError, match="exceeded max_events=3"):
            engine.run(max_events=3)
        # The fourth event was popped and counted, never called.
        assert fired == [0, 1, 2]
        assert engine.events_fired == 4
        assert engine.now == 3.0
        assert engine.pending() == 1

    def test_run_drains_the_queue(self):
        engine = Engine()
        engine.schedule(2.0, lambda: engine.schedule(3.0, lambda: None))
        assert engine.run() == 5.0
        assert engine.pending() == 0
        assert engine.events_fired == 2

    def test_events_fired_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_fired == 5

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "event"])
    def test_sanitizer_sees_every_fired_event(self, monkeypatch, batch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        hierarchy = Hierarchy(
            SimConfig(machine=get_machine("skl"), sim_cores=2, batch=batch)
        )
        thread = resident_thread(0, 600, 64, hot_lines=8)
        stats = hierarchy.run(columnar_trace([thread, thread]))
        assert stats.events_fired > 0
        assert hierarchy.sanitizer.events_checked == stats.events_fired
        assert hierarchy.sanitizer.event_id == stats.events_fired


class TestComputeCycles:
    """``CoreStats.compute_cycles`` is the left fold of the gap column.

    The driver sets it once, when the thread finishes, from ``np.cumsum``
    over the gaps; the reference is ``0.0 + g[0] + g[1] + ...`` in
    Python floats.  Gaps such as 0.1 and 1/3 make the order of the adds
    visible in the last bits.
    """

    N = 700

    @classmethod
    def _trace(cls, gaps):
        thread = resident_thread(0, cls.N, 64, hot_lines=8)
        columns = [
            AccessColumns(thread.addr, thread.kind, np.resize(np.asarray(g), cls.N))
            for g in gaps
        ]
        return columnar_trace(columns)

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "event"])
    def test_matches_a_left_fold_bit_for_bit(self, batch):
        gaps = ([0.1, 1 / 3, 0.7, 2.9, 1e-3], [1 / 3, 0.1, 5.0, 0.0, 1 / 7])
        trace = self._trace(gaps)
        stats = run_trace(
            trace, SimConfig(machine=get_machine("skl"), sim_cores=2, batch=batch)
        )
        if batch:
            assert stats.batch_accesses > 0
        for core_stats, thread in zip(stats.cores, trace.threads):
            want = reduce(lambda acc, g: acc + g, thread.gap_cycles.tolist(), 0.0)
            assert core_stats.compute_cycles == want

    def test_empty_thread_reads_zero(self):
        empty = AccessColumns.empty()
        thread = resident_thread(0, 50, 64, hot_lines=8)
        stats = run_trace(
            columnar_trace([thread, empty]),
            SimConfig(machine=get_machine("skl"), sim_cores=2),
        )
        assert stats.cores[1].compute_cycles == 0.0
        assert stats.cores[0].compute_cycles == 50 * 6.0


class TestDriverRelease:
    """A finished driver is freed by reference counting, not by the GC.

    The driver binds its own methods once, which makes it a reference
    cycle until ``_finish`` drops them; a cycle would keep each
    driver's per-access lists alive until a full collection.
    """

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "event"])
    def test_no_driver_outlives_the_run(self, batch):
        thread = resident_thread(0, 600, 64, hot_lines=8)
        config = SimConfig(machine=get_machine("skl"), sim_cores=2, batch=batch)
        gc.collect()
        gc.disable()
        try:
            run_trace(columnar_trace([thread, thread]), config)
            alive = [o for o in gc.get_objects() if isinstance(o, ThreadDriver)]
        finally:
            gc.enable()
        assert alive == []


class TestWake:
    """``Engine.wake`` fires zero-delay callbacks in place only when exact."""

    @staticmethod
    def _fill(engine, order):
        def fill():
            order.append("fill")
            engine.wake([lambda: order.append("w1"), lambda: order.append("w2")])

        return fill

    def test_runs_in_place_when_nothing_else_is_due(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, self._fill(engine, order))
        engine.schedule(2.0, lambda: order.append("later"))
        engine.run()
        assert order == ["fill", "w1", "w2", "later"]
        assert (engine.events_fired, engine.wakeups_in_place) == (2, 2)

    def test_event_due_now_fires_first(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, self._fill(engine, order))
        engine.schedule(1.0, lambda: order.append("tied"))
        engine.run()
        assert order == ["fill", "tied", "w1", "w2"]
        assert (engine.events_fired, engine.wakeups_in_place) == (4, 0)

    def test_zero_delay_events_of_a_wakeup_follow_every_wakeup(self):
        engine = Engine()
        order = []

        def w1():
            order.append("w1")
            engine.schedule(0.0, lambda: order.append("child"))

        engine.schedule(1.0, lambda: engine.wake([w1, lambda: order.append("w2")]))
        engine.run()
        assert order == ["w1", "w2", "child"]
        assert (engine.events_fired, engine.wakeups_in_place) == (2, 2)

    def test_outside_run_schedules(self):
        engine = Engine()
        order = []
        engine.wake([lambda: order.append("w")])
        assert order == [] and engine.pending() == 1
        engine.run()
        assert order == ["w"]
        assert engine.wakeups_in_place == 0



class TestTraceGapChecks:
    """A gap must be finite and non-negative, checked where a trace is built.

    ``AccessColumns``, ``ColumnarThreadTrace`` and ``load_trace`` raise
    :class:`~repro.errors.TraceError`, so a NaN or infinite gap never
    reaches a digest, a trace file or the simulator, whichever path would
    have issued its access.  The driver still checks each gap in ns: a
    finite gap can overflow when divided by a low clock.
    """

    N = 600

    @classmethod
    def _trace(cls, bad_index=None, bad_gap=0.0):
        thread = resident_thread(0, cls.N, 64, hot_lines=8)
        gaps = thread.gap_cycles.copy()
        if bad_index is not None:
            gaps[bad_index] = bad_gap
        columns = AccessColumns(thread.addr, thread.kind, gaps)
        return columnar_trace([columns, columns])

    @staticmethod
    def _config(batch, machine=None):
        machine = machine or get_machine("skl")
        return SimConfig(machine=machine, sim_cores=2, batch=batch)

    def test_later_index_lies_in_a_batched_run(self):
        stats = run_trace(self._trace(), self._config(True))
        assert stats.batch_accesses > self.N

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "event"])
    @pytest.mark.parametrize("bad_index", [0, 300])
    @pytest.mark.parametrize("bad_gap", [float("nan"), float("inf")])
    def test_non_finite_gap_fails_the_run(self, batch, bad_index, bad_gap):
        config = self._config(batch)
        with pytest.raises(TraceError, match="gap must be finite and non-negative"):
            self._trace(bad_index, bad_gap)
        # The same run without the bad gap simulates.
        assert run_trace(self._trace(), config).issued_total() == 2 * self.N

    @staticmethod
    def _bad_file(path, gaps):
        """A trace file holding ``gaps`` verbatim, as an edit would leave it."""
        meta = {
            "format": TRACE_FILE_FORMAT,
            "version": TRACE_FILE_VERSION,
            "routine": "edited",
            "line_bytes": 64,
            "thread_ids": [0],
            "sha256": "not checked: the columns fail first",
        }
        n = len(gaps)
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            t0_addr=np.arange(n, dtype=np.uint64) * 64,
            t0_kind=np.zeros(n, dtype=np.uint8),
            t0_gap=np.asarray(gaps, dtype=np.float64),
        )
        return path

    @pytest.mark.parametrize(
        "bad_gap", [float("nan"), float("inf"), -float("inf"), -1.0]
    )
    @pytest.mark.parametrize("build", ["columns", "thread", "file"])
    def test_every_constructor_rejects_the_gap(self, tmp_path, build, bad_gap):
        gaps = np.array([1.0, bad_gap, 2.0])
        addr = np.arange(3, dtype=np.uint64) * 64
        kind = np.zeros(3, dtype=np.uint8)
        with pytest.raises(TraceError, match=f"got {bad_gap}"):
            if build == "columns":
                AccessColumns(addr, kind, gaps)
            elif build == "thread":
                ColumnarThreadTrace(0, addr, kind, gaps)
            else:
                load_trace(self._bad_file(tmp_path / "t.npz", gaps))

    def test_good_file_loads(self, tmp_path):
        path = self._bad_file(tmp_path / "t.npz", [1.0, 0.0, 2.0])
        trace = load_trace(path, verify=False)
        assert trace.threads[0].gap_cycles.tolist() == [1.0, 0.0, 2.0]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "event"])
    def test_gap_overflowing_in_ns_fails_the_run(self, batch):
        # 1e308 cycles is a finite gap, but at 0.5 GHz it is +inf ns.
        slow = get_machine("skl").with_frequency(ghz(0.5))
        trace = self._trace(300, 1e308)
        message = "cannot schedule with non-finite or negative delay: inf"
        with pytest.raises(SimulationError, match=message):
            run_trace(trace, self._config(batch, slow))
