"""Discrete-event engine semantics."""

import pytest

from repro.errors import SimulationError
from repro.machines import get_machine
from repro.sim import Engine, SimConfig, run_trace
from repro.sim.coltrace import AccessColumns, columnar_trace
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
    def test_until_stops_early(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(100.0, lambda: fired.append(2))
        engine.run(until_ns=50.0)
        assert fired == [1]
        assert engine.pending() == 1

    def test_max_events_guard(self):
        engine = Engine()

        def loop():
            engine.schedule(1.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_events_fired_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_fired == 5


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
    """A bad gap fails the whole run, whichever path issues its access.

    The trace constructor rejects only negative gaps (``np.nanmin`` skips
    NaN), so a NaN or +inf gap reaches the simulator and must be
    rejected there, batching on or off, at the first access or at one
    inside a batched hit run.
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
    def _config(batch):
        return SimConfig(machine=get_machine("skl"), sim_cores=2, batch=batch)

    def test_later_index_lies_in_a_batched_run(self):
        stats = run_trace(self._trace(), self._config(True))
        assert stats.batch_accesses > self.N

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "event"])
    @pytest.mark.parametrize("bad_index", [0, 300])
    @pytest.mark.parametrize("bad_gap", [float("nan"), float("inf")])
    def test_non_finite_gap_fails_the_run(self, batch, bad_index, bad_gap):
        with pytest.raises(SimulationError):
            run_trace(self._trace(bad_index, bad_gap), self._config(batch))
