"""Discrete-event simulation engine.

The whole server is simulated as a network of queueing stages (the paper's
"multi-stage Clos network" view, section 4.1).  Time is measured in CPU
*cycles* as a float; the machine configuration maps cycles to wall-clock
time via its core frequency.

Components schedule callbacks at absolute times.  Most blocked work (a
core stalled on a full buffer, a request waiting for a queue slot) parks
itself on a :class:`Waiter` that the resource owner wakes.  The one
busy-wait is a flit facing the CXL device's full packing buffer: it
polls through :meth:`Engine.poll`, re-trying every 4 cycles as link
credits would pace its sender.

The scheduler is one ``heapq`` of ``(time, seq, callback)`` entries plus
a FIFO of pending poll checks, so events run in (time, insertion) order:
same-time events run first-in first-out, including events a callback
schedules at the running time.  That order is all the stage network
relies on.  Every check is armed at ``now + POLL_PERIOD`` and ``now``
never decreases, so the FIFO is in (time, seq) order as appended, and
the drain loop merges its head with the heap's.

:meth:`Engine.fast_forward` supports the adaptive-fidelity warp
(``repro.sim.warp``): it advances the clock by a delta while shifting every
pending event with it, so in-flight work keeps its relative timing across
a skipped steady-state span.

See ``docs/ENGINE.md`` for the hot-path architecture notes.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, List, Optional, Sized, Tuple

#: Relative tolerance for scheduling "in the past": drift within this
#: fraction of ``now`` (floored at the same absolute amount near zero) is
#: treated as float round-off, not a logic error.
_PAST_TOLERANCE = 1e-9

_NEVER = float("inf")

#: Cycles between two checks of an :meth:`Engine.poll` (the retry
#: interval of a credit-throttled link sender).
POLL_PERIOD = 4.0


class SimulationBudgetExceeded(RuntimeError):
    """An event budget ran out with events still pending.

    Raised by ``Engine.run(max_events=...)`` and by runs bounded by a
    persistent :meth:`Engine.set_event_budget`.  Carries the number of
    events executed within the bounded run and the simulated clock at the
    point the budget ran out, so callers (the campaign runner treats this
    as a retryable job failure) can report or re-dispatch with a larger
    budget.
    """

    def __init__(self, events_executed: int, now: float) -> None:
        super().__init__(
            f"simulation budget exceeded after {events_executed} events "
            f"at cycle {now:.0f}"
        )
        self.events_executed = events_executed
        self.now = now


class Engine:
    """Discrete-event scheduler keyed on CPU cycles.

    Events execute in (time, insertion-order) order.
    """

    __slots__ = (
        "now",
        "_heap",
        "_polls",
        "_seq",
        "_events_executed",
        "_budget",
        "_warp_marks",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        # Pending poll checks, (time, seq, items, limit, callback), in
        # (time, seq) order.
        self._polls: Deque[Tuple[float, int, Sized, int, Callable[[], None]]] = deque()
        self._seq = itertools.count()
        self._events_executed = 0
        # Absolute events_executed ceiling set by set_event_budget(); lets
        # budgets compose across resumed run() calls.
        self._budget: Optional[int] = None
        # (post-jump time, cumulative fast-forwarded cycles) per warp, so
        # elapsed() can exclude warped spans from wall-derived durations.
        self._warp_marks: List[Tuple[float, float]] = []

    # -- scheduling ---------------------------------------------------

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute cycle ``time``.

        Long chains of fractional :meth:`after` delays accumulate float
        error, so ``time`` can legitimately land a few ULPs below
        ``self.now``; such sub-epsilon drift is clamped to ``now`` rather
        than aborting the run.  A genuinely past time still raises.
        """
        now = self.now
        if time < now:
            drift = now - time
            if drift <= _PAST_TOLERANCE * max(1.0, abs(now)):
                time = now
            else:
                raise ValueError(
                    f"cannot schedule event in the past: {time} < {now}"
                )
        heappush(self._heap, (time, next(self._seq), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def post(self, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at the current cycle (``after(0.0, ...)``).

        The zero-delay path used by wake-ups and completion fan-out; the
        callback runs after everything already queued at this cycle.
        """
        heappush(self._heap, (self.now, next(self._seq), callback))

    def poll(
        self, items: Sized, limit: int, callback: Callable[[], None]
    ) -> None:
        """Run ``callback`` once ``len(items) < limit``, checking every
        :data:`POLL_PERIOD` cycles.

        The first check runs one period from now (the caller has just
        found ``items`` full).  Each check is one event; a failed check
        re-arms at ``now + POLL_PERIOD`` with a fresh sequence number, so
        the schedule - times, (time, seq) order and ``events_executed`` -
        is exactly that of an ``after(POLL_PERIOD, retry)`` chain whose
        retry re-tests the length.  The drain loop runs the check itself,
        without a call.
        """
        self._polls.append(
            (self.now + POLL_PERIOD, next(self._seq), items, limit, callback)
        )

    # -- budgets ------------------------------------------------------

    def set_event_budget(self, max_events: Optional[int]) -> None:
        """Cap total future event execution across :meth:`run` calls.

        Unlike ``run(max_events=N)`` (a per-call bound), the budget set
        here persists: ``set_event_budget(N)`` allows N more events in
        total no matter how many times ``run()`` is resumed.  ``None``
        clears the budget.
        """
        if max_events is None:
            self._budget = None
            return
        if max_events < 0:
            raise ValueError(f"negative event budget: {max_events}")
        self._budget = self._events_executed + max_events

    @property
    def event_budget_remaining(self) -> Optional[int]:
        if self._budget is None:
            return None
        return max(0, self._budget - self._events_executed)

    # -- execution ----------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """Drain pending events.

        ``until`` bounds simulated time (events past it stay queued and the
        clock is advanced exactly to ``until``); ``max_events`` bounds the
        number of events executed *by this call* and composes with any
        persistent :meth:`set_event_budget` ceiling.  Hitting either bound
        with events still pending raises :class:`SimulationBudgetExceeded`
        (a silent return here used to hide runaway simulations).  Returns
        the final clock value.
        """
        start = self._events_executed
        ceiling = self._budget
        if max_events is not None:
            call_ceiling = start + max_events
            if ceiling is None or call_ceiling < ceiling:
                ceiling = call_ceiling
        # Unset bounds become sentinels: the budget is the end of the
        # loop's range and ``until`` one comparison per event.
        stop = _NEVER if until is None else until
        if ceiling is None:
            ceiling = sys.maxsize
        heap = self._heap
        polls = self._polls
        seq = self._seq
        executed = start
        try:
            # One iteration per event; ``executed`` counts the event the
            # iteration runs, so each stop below steps it back by one.
            for executed in range(start + 1, ceiling + 1):
                # Seqs are unique, so comparing two entries never reaches
                # their third field.
                if polls and (not heap or polls[0] < heap[0]):
                    time, _, items, limit, callback = polls[0]
                    if time > stop:
                        executed -= 1
                        break
                    polls.popleft()
                    self.now = time
                    if len(items) < limit:
                        callback()
                    else:
                        polls.append(
                            (time + POLL_PERIOD, next(seq), items, limit, callback)
                        )
                    continue
                if not heap:
                    executed -= 1
                    break
                # Pop first; an entry past ``until`` goes back unchanged,
                # seq and all, so the resumed run sees the same schedule.
                time, order, callback = heappop(heap)
                if time > stop:
                    heappush(heap, (time, order, callback))
                    executed -= 1
                    break
                self.now = time
                callback()
            else:
                # The budget ran out: only an event still due is an error.
                due = heap[0][0] if heap else _NEVER
                if polls and polls[0][0] < due:
                    due = polls[0][0]
                if due <= stop:
                    raise SimulationBudgetExceeded(executed - start, self.now)
        finally:
            self._events_executed = executed
        if heap or polls:
            self.now = stop
        elif until is not None and self.now < until:
            self.now = until
        return self.now

    def fast_forward(self, delta: float) -> None:
        """Advance the clock by ``delta`` cycles, carrying pending events.

        Every queued event is shifted by the same delta, so in-flight work
        keeps its relative timing across the jump; only the absolute clock
        moves.  This is the engine half of the adaptive-fidelity warp
        (``repro.sim.warp``): the warp controller extrapolates counters for
        the skipped span while this method teleports the event queue.
        Must not be called from inside a running event.
        """
        if delta < 0:
            raise ValueError(f"negative fast-forward delta: {delta}")
        if delta == 0.0:
            return
        self.now += delta
        previous = self._warp_marks[-1][1] if self._warp_marks else 0.0
        self._warp_marks.append((self.now, previous + delta))
        # A uniform shift preserves (time, seq) order; re-heapify only to
        # restore the invariant against float rounding edge cases.
        self._heap = [(time + delta, seq, callback)
                      for time, seq, callback in self._heap]
        heapq.heapify(self._heap)
        self._polls = deque((time + delta, seq, items, limit, callback)
                            for time, seq, items, limit, callback in self._polls)

    def elapsed(self, start: float, end: Optional[float] = None) -> float:
        """Simulated cycles in ``[start, end]`` excluding warped spans.

        Durations booked against PMU counters from a remembered start
        timestamp (stall intervals, request latencies) must not include
        fast-forwarded cycles - the warp's extrapolated epoch already
        accounts for them.  Without any warp this is exactly
        ``end - start``, and the hot path pays a single truthiness check.
        """
        if end is None:
            end = self.now
        raw = end - start
        marks = self._warp_marks
        if not marks or raw <= 0:
            return raw
        if end < marks[0][0]:
            return raw
        # Cumulative warped cycles at or before each endpoint; warps are
        # rare (a handful per run), so a linear scan from the tail wins
        # over bisect for typical intervals.
        before_start = before_end = 0.0
        for at, cumulative in reversed(marks):
            if at <= end and not before_end:
                before_end = cumulative
            if at <= start:
                before_start = cumulative
                break
        return raw - (before_end - before_start)

    def clear(self) -> None:
        """Drop every pending event and poll."""
        self._heap.clear()
        self._polls.clear()

    @property
    def pending_events(self) -> int:
        return len(self._heap) + len(self._polls)

    @property
    def events_executed(self) -> int:
        return self._events_executed


class Waiter:
    """A FIFO parking lot for blocked actors.

    Resources with finite capacity (store buffer, LFB, TOR, pending queues,
    packing buffers) keep one of these; a blocked producer enqueues a
    wake-up callback and the resource calls :meth:`wake_one` whenever a slot
    frees.  Wake-ups run as fresh events so a waker never re-enters the
    caller's stack.
    """

    __slots__ = ("_engine", "_waiting")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._waiting: Deque[Callable[[], None]] = deque()

    def __len__(self) -> int:
        return len(self._waiting)

    def wait(self, callback: Callable[[], None]) -> None:
        self._waiting.append(callback)

    def wake_one(self) -> None:
        if self._waiting:
            self._engine.post(self._waiting.popleft())

    def wake_all(self) -> None:
        waiting = self._waiting
        if not waiting:
            return
        engine = self._engine
        while waiting:
            engine.post(waiting.popleft())
