"""Ingestion bus: one producer, many bounded subscribers.

The profiling loop publishes one digest dict per epoch; consumers (the
serve ``/v1/live`` endpoint, the CLI renderer, tests) each get their own
bounded deque so a slow dashboard can never stall the simulator - the
bus drops that subscriber's *oldest* events instead and counts the
drops.

Thread-safe: the sim loop publishes from a worker thread/process driver
while asyncio handlers drain via :meth:`LiveSubscription.drain_nowait`,
woken by the subscription's ``wake`` callback instead of polling.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional

#: Marks the end of the stream inside a subscriber's deque.
_CLOSE = object()


class LiveSubscription:
    """One consumer's bounded view of the bus."""

    def __init__(self, bus: "IngestionBus", maxlen: int,
                 wake: Optional[Callable[[], None]] = None) -> None:
        self._bus = bus
        self._events: deque = deque()
        self._maxlen = maxlen
        self._cond = threading.Condition()
        self._closed = False
        #: Called after every push (close marker included), outside the
        #: subscription lock, from the publishing thread.
        self._wake = wake
        #: Events this subscriber lost to backpressure.
        self.dropped = 0

    def _push(self, event: object) -> None:
        with self._cond:
            if self._closed:
                return
            if event is _CLOSE:
                self._closed = True
            elif len(self._events) >= self._maxlen:
                self._events.popleft()
                self.dropped += 1
            self._events.append(event)
            self._cond.notify_all()
        if self._wake is not None:
            self._wake()

    def get(self, timeout: Optional[float] = None) -> Optional[Dict]:
        """Next event, blocking up to ``timeout``; ``None`` on close or
        timeout."""
        with self._cond:
            if not self._events:
                self._cond.wait(timeout)
            if not self._events:
                return None
            event = self._events.popleft()
            return None if event is _CLOSE else event

    def drain_nowait(self) -> List[Dict]:
        """All queued events without blocking (for asyncio consumers)."""
        with self._cond:
            out = []
            while self._events:
                event = self._events.popleft()
                if event is _CLOSE:
                    break
                out.append(event)
            return out

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed and not self._events

    def __iter__(self) -> Iterator[Dict]:
        while True:
            event = self.get(timeout=None)
            if event is None:
                return
            yield event

    def close(self) -> None:
        self._bus.unsubscribe(self)


class IngestionBus:
    """Fan-out point between the profiling loop and live consumers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: List[LiveSubscription] = []
        self._closed = False
        self.published = 0

    def subscribe(self, maxlen: int = 1024, *,
                  wake: Optional[Callable[[], None]] = None
                  ) -> LiveSubscription:
        """A new bounded subscription; ``wake`` is called after each
        event it receives (see :class:`LiveSubscription`)."""
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        sub = LiveSubscription(self, maxlen, wake)
        with self._lock:
            if self._closed:
                sub._push(_CLOSE)
            else:
                self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: LiveSubscription) -> None:
        with self._lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass
        sub._push(_CLOSE)

    def publish(self, event: Dict) -> None:
        with self._lock:
            if self._closed:
                return
            self.published += 1
            subscribers = list(self._subscribers)
        for sub in subscribers:
            sub._push(event)

    def close(self) -> None:
        """End of stream: wake every subscriber with a close marker."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscribers = self._subscribers
            self._subscribers = []
        for sub in subscribers:
            sub._push(_CLOSE)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "published": self.published,
                "subscribers": len(self._subscribers),
                "dropped": sum(s.dropped for s in self._subscribers),
            }
