"""Discrete-event simulation engine.

A minimal, deterministic event loop: events are ``(time, seq, callback)``
triples in a heap; ``seq`` breaks ties so same-time events fire in
scheduling order, making runs fully reproducible.  Time is in
**nanoseconds** (float); component code converts to core cycles where
needed via the machine's frequency.

The engine is the simulator's innermost loop (every cache access,
MSHR fill, and memory completion passes through it several times), so
it is written for CPython speed: ``__slots__``, a plain integer
sequence counter, method-local bindings of the heap primitives, and
one :meth:`Engine.run` loop that pops an event, unpacks it and calls
it, with no peek at the heap's head.
:attr:`Engine.now` is a plain slot that only :meth:`Engine.run`
writes, not a property: the access path reads it several times per
access, and a property read is a Python call.  The optimizations are
observationally invisible — the ``(time, seq)`` ordering contract is
unchanged bit-for-bit.

Zero-delay wakeups (the waiters an L1 fill releases) go through
:meth:`Engine.wake`, which runs them in place, without a heap round
trip, whenever they would have been the next events to fire anyway:
no queued event is due at the current instant.  Otherwise it schedules
them.  Either way they run in the same order against every other
event; a wakeup run in place is counted in
:attr:`Engine.wakeups_in_place`, not in :attr:`Engine.events_fired`.

The per-access events skip :meth:`Engine.schedule`:
``ThreadDriver._try_issue`` (the next issue attempt), the hierarchy's
L1-hit completion, L2-hit fill and L2-fill waiters, and the memory
controller's request completion push onto :attr:`Engine.heap`
themselves, drawing their tie-break number from :attr:`Engine.seq`
exactly as ``schedule`` does, so the heap order is unchanged.  Their
delays are checked where they are made instead of per push: a driver
checks its whole gap column once (finite and non-negative), a
``Hierarchy`` its two hit latencies once, and the controller keeps
:meth:`Engine.schedule_at`'s range check inline.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Sequence, Tuple

from ..errors import SimulationError

Callback = Callable[[], None]

_INF = float("inf")


class Engine:
    """Deterministic discrete-event loop with ns time."""

    __slots__ = (
        "heap",
        "seq",
        "now",
        "_running",
        "_events_fired",
        "_in_place",
        "_sanitizer",
    )

    def __init__(self) -> None:
        #: The event heap of ``(time_ns, seq, callback)`` triples.  A
        #: caller that pushes onto it directly must draw ``seq`` from
        #: :attr:`seq` the way :meth:`schedule` does and check its time.
        self.heap: List[Tuple[float, int, Callback]] = []
        #: Tie-break number of the next pushed event; every push takes
        #: the current value and increments it.
        self.seq = 0
        #: Current simulation time in ns; only :meth:`run` writes it.
        self.now = 0.0
        self._running = False
        self._events_fired = 0
        self._in_place = 0
        #: Optional :class:`repro.analysis.sanitizer.RunSanitizer` hook;
        #: when set, every fired event's time is invariant-checked.
        self._sanitizer = None

    @property
    def events_fired(self) -> int:
        """Total events executed so far (for loop-bound guards)."""
        return self._events_fired

    @property
    def wakeups_in_place(self) -> int:
        """Callbacks :meth:`wake` ran in place instead of scheduling."""
        return self._in_place

    def schedule(self, delay_ns: float, callback: Callback) -> None:
        """Schedule ``callback`` to run ``delay_ns`` from now."""
        # The chained compare rejects NaN (both sides false), negatives,
        # and +inf in one branch; any of them would poison the heap's
        # time ordering or park an event at the end of time.
        if not (0.0 <= delay_ns < _INF):
            raise SimulationError(
                f"cannot schedule with non-finite or negative delay: {delay_ns}"
            )
        seq = self.seq
        self.seq = seq + 1
        heappush(self.heap, (self.now + delay_ns, seq, callback))

    def schedule_at(self, time_ns: float, callback: Callback) -> None:
        """Schedule ``callback`` at absolute time ``time_ns``."""
        if not (self.now <= time_ns < _INF):
            raise SimulationError(
                f"cannot schedule at {time_ns} before now ({self.now})"
            )
        seq = self.seq
        self.seq = seq + 1
        heappush(self.heap, (time_ns, seq, callback))

    def wake(self, callbacks: Sequence[Callback]) -> None:
        """Fire ``callbacks`` as if each were scheduled with zero delay, in order.

        The caller must be an event that does nothing else after this
        call.  While the engine runs and no queued event is due at the
        current instant (the queue is empty or its head lies later),
        the callbacks would be the next events to fire, in this order,
        and anything one of them schedules would draw a later sequence
        number than all of them.  So they run here at once, and are
        counted in :attr:`wakeups_in_place` instead of
        :attr:`events_fired`.  Otherwise each is scheduled.
        """
        queue = self.heap
        if self._running and not (queue and queue[0][0] <= self.now):
            self._in_place += len(callbacks)
            for callback in callbacks:
                callback()
            return
        # schedule(0.0, callback) per callback, without the calls.
        time_ns = self.now + 0.0
        seq = self.seq
        for callback in callbacks:
            heappush(queue, (time_ns, seq, callback))
            seq += 1
        self.seq = seq

    def run(self, *, max_events: int = 50_000_000) -> float:
        """Run until the queue drains; returns the final simulation time.

        One loop pops the earliest event, advances :attr:`now` to its
        time and calls it.  ``max_events`` is a runaway guard: exceeding
        it raises :class:`~repro.errors.SimulationError`.  A sanitizer,
        when attached, sees every fired event's time and count.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self.heap
        pop = heappop
        events = self._events_fired
        sanitizer = self._sanitizer
        try:
            while queue:
                time_ns, _, callback = pop(queue)
                self.now = time_ns
                events += 1
                if events > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a scheduling loop"
                    )
                if sanitizer is not None:
                    sanitizer.on_event(time_ns, events)
                callback()
        finally:
            self._events_fired = events
            self._running = False
        return self.now

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self.heap)
