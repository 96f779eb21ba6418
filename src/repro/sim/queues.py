"""Monitored queueing primitives.

Every uncore PMU counter in the paper (Tables 3-4) is one of three shapes:
number of inserts, cycles-not-empty, or time-integrated occupancy, all over
some hardware FIFO (RPQ/WPQ, TOR, M2PCIe ingress, CXL packing buffers).
:class:`MonitoredQueue` provides exactly those three meters over a bounded
FIFO; :class:`Server` adds a service process so a queue plus a server form
one stage of the Clos network.

These classes sit on the simulator's hottest path (every request crosses
several stages), so the layout is deliberately flat: ``__slots__``
instances, meters advanced only when the clock actually moved, and a
pass-through fast path in :class:`Server` for the common
empty-queue/idle-server case.  Metering and observer hooks fire in exactly
the same order on both paths.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Optional, Union

from .engine import Engine, Waiter

#: The capacity an unbounded FIFO compares against in its full tests.
_UNBOUNDED = sys.maxsize


class QueueStats:
    """Insert / not-empty / full / occupancy meters for one FIFO.

    Occupancy and cycle counters are integrals over time, accumulated
    lazily: each update first folds in ``depth * (now - last_update)``
    when the clock moved since the previous one.  The fold is written
    out in each hot method rather than called.
    """

    __slots__ = (
        "inserts",
        "occupancy_integral",
        "cycles_not_empty",
        "cycles_full",
        "_depth",
        "_capacity",
        "_last_update",
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.inserts = 0
        self.occupancy_integral = 0.0   # sum of depth over cycles
        self.cycles_not_empty = 0.0
        self.cycles_full = 0.0
        self._depth = 0
        # Depth from which the FIFO counts as full (never, unbounded).
        self._capacity = _UNBOUNDED if capacity is None else capacity
        self._last_update = 0.0

    def on_insert(self, now: float) -> None:
        dt = now - self._last_update
        if dt:
            if dt < 0:
                raise ValueError("time went backwards in queue stats")
            depth = self._depth
            self.occupancy_integral += depth * dt
            if depth > 0:
                self.cycles_not_empty += dt
                if depth >= self._capacity:
                    self.cycles_full += dt
            self._last_update = now
        self.inserts += 1
        self._depth += 1

    def on_remove(self, now: float) -> None:
        dt = now - self._last_update
        if dt:
            if dt < 0:
                raise ValueError("time went backwards in queue stats")
            depth = self._depth
            self.occupancy_integral += depth * dt
            if depth > 0:
                self.cycles_not_empty += dt
                if depth >= self._capacity:
                    self.cycles_full += dt
            self._last_update = now
        if self._depth <= 0:
            raise ValueError("removing from empty queue")
        self._depth -= 1

    def on_transit(self, now: float) -> None:
        """An insert+remove pair at one instant (pass-through fast path).

        Equivalent to ``on_insert(now); on_remove(now)``: one meter
        advance, one insert, and no net depth change.
        """
        dt = now - self._last_update
        if dt:
            if dt < 0:
                raise ValueError("time went backwards in queue stats")
            depth = self._depth
            self.occupancy_integral += depth * dt
            if depth > 0:
                self.cycles_not_empty += dt
                if depth >= self._capacity:
                    self.cycles_full += dt
            self._last_update = now
        self.inserts += 1

    def sync(self, now: float) -> None:
        dt = now - self._last_update
        if dt:
            if dt < 0:
                raise ValueError("time went backwards in queue stats")
            depth = self._depth
            self.occupancy_integral += depth * dt
            if depth > 0:
                self.cycles_not_empty += dt
                if depth >= self._capacity:
                    self.cycles_full += dt
            self._last_update = now

    @property
    def depth(self) -> int:
        return self._depth

    def mean_occupancy(self, elapsed: float) -> float:
        """Average queue length over ``elapsed`` cycles."""
        if elapsed <= 0:
            return 0.0
        return self.occupancy_integral / elapsed


class MonitoredQueue:
    """Bounded FIFO with PMU-style meters and blocking producers.

    ``try_push`` is non-blocking (returns False when full, letting the
    caller count a stall and park on :attr:`space_waiter`); ``pop`` frees a
    slot and wakes one parked producer.
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "stats",
        "_items",
        "_limit",
        "space_waiter",
        "observer",
    )

    def __init__(
        self,
        engine: Engine,
        capacity: Optional[int] = None,
        name: str = "queue",
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.stats = QueueStats(capacity)
        self._items: Deque[Any] = deque()
        self._limit = _UNBOUNDED if capacity is None else capacity
        self.space_waiter = Waiter(engine)
        # Optional flight-recorder hook (``on_queue_push``/``on_queue_pop``);
        # None unless a traced profiling session attached a recorder.
        self.observer: Optional[Any] = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self._limit

    @property
    def empty(self) -> bool:
        return not self._items

    def try_push(self, item: Any) -> bool:
        items = self._items
        if len(items) >= self._limit:
            return False
        items.append(item)
        self.stats.on_insert(self.engine.now)
        if self.observer is not None:
            self.observer.on_queue_push(self, item)
        return True

    def poll_space(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the queue has room, re-checking every
        :data:`~repro.sim.engine.POLL_PERIOD` cycles.

        For a sender that retries on a fixed period instead of parking on
        :attr:`space_waiter` (see :meth:`Engine.poll`).
        """
        self.engine.poll(self._items, self.capacity, callback)

    def push(self, item: Any) -> None:
        """Push that trusts the caller already checked ``full``."""
        if not self.try_push(item):
            raise OverflowError(f"{self.name} is full (cap={self.capacity})")

    def pop(self) -> Any:
        if not self._items:
            raise IndexError(f"{self.name} is empty")
        item = self._items.popleft()
        self.stats.on_remove(self.engine.now)
        if self.observer is not None:
            self.observer.on_queue_pop(self, item)
        waiter = self.space_waiter
        if waiter._waiting:
            waiter.wake_one()
        return item

    def peek(self) -> Any:
        if not self._items:
            raise IndexError(f"{self.name} is empty")
        return self._items[0]


class Server:
    """A k-server service stage draining a :class:`MonitoredQueue`.

    ``service_time`` is the cycles one server spends on an item: a
    number when every item takes the same time (DRAM channels, mesh,
    CXL media), or a function of the item (FlexBus flits of two sizes,
    M2PCIe arbitration that QoS retunes).  ``on_done(item)`` fires when
    service completes.
    Throughput is thus ``servers / mean_service_time`` - this is how
    every bandwidth limit in the simulator (DRAM channels, FlexBus link,
    CXL media) is expressed.
    """

    __slots__ = (
        "engine",
        "queue",
        "service_time",
        "on_done",
        "servers",
        "name",
        "busy",
        "busy_integral",
        "_last_update",
        "_per_item",
        "completed",
    )

    def __init__(
        self,
        engine: Engine,
        queue: MonitoredQueue,
        service_time: Union[float, Callable[[Any], float]],
        on_done: Callable[[Any], None],
        servers: int = 1,
        name: str = "server",
    ) -> None:
        if servers <= 0:
            raise ValueError(f"{name}: need at least one server")
        self._per_item = callable(service_time)
        if not self._per_item and service_time < 0:
            raise ValueError(f"{name}: negative service time")
        self.engine = engine
        self.queue = queue
        self.service_time = service_time
        self.on_done = on_done
        self.servers = servers
        self.name = name
        self.busy = 0
        self.busy_integral = 0.0
        self._last_update = 0.0
        self.completed = 0

    def submit(self, item: Any) -> bool:
        """Enqueue ``item`` and kick a server if one is idle."""
        queue = self.queue
        if self.busy < self.servers and not queue._items:
            # Pass-through fast path: the item crosses the (empty) queue
            # into an idle server at one instant.  Meter the insert+remove
            # pair and fire the hooks in the same order as push()+pop().
            now = self.engine.now
            observer = queue.observer
            if observer is None:
                queue.stats.on_transit(now)
            else:
                stats = queue.stats
                stats.on_insert(now)
                observer.on_queue_push(queue, item)
                stats.on_remove(now)
                observer.on_queue_pop(queue, item)
            if queue.space_waiter._waiting:
                queue.space_waiter.wake_one()
            dt = now - self._last_update
            if dt:
                self.busy_integral += self.busy * dt
                self._last_update = now
            self.busy += 1
            delay = self.service_time
            if self._per_item:
                delay = delay(item)
                if delay < 0:
                    raise ValueError(f"{self.name}: negative service time")
            self.engine.after(delay, partial(self._finish, item))
            return True
        if not queue.try_push(item):
            return False
        self._dispatch()
        return True

    def _dispatch(self) -> None:
        queue = self.queue
        while self.busy < self.servers and queue._items:
            item = queue.pop()
            now = self.engine.now
            dt = now - self._last_update
            if dt:
                self.busy_integral += self.busy * dt
                self._last_update = now
            self.busy += 1
            delay = self.service_time
            if self._per_item:
                delay = delay(item)
                if delay < 0:
                    raise ValueError(f"{self.name}: negative service time")
            self.engine.after(delay, partial(self._finish, item))

    def _finish(self, item: Any) -> None:
        now = self.engine.now
        dt = now - self._last_update
        if dt:
            self.busy_integral += self.busy * dt
            self._last_update = now
        self.busy -= 1
        self.completed += 1
        self.on_done(item)
        if self.queue._items:
            self._dispatch()

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return self.busy_integral / (elapsed * self.servers)
