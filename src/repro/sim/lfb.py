"""Line Fill Buffer (LFB).

Per-core hardware FIFO with tens of cacheline entries buffering read
responses (section 2.2, path #1).  It doubles as the MSHR file: a demand
load that misses L1D but targets a line already in flight coalesces onto
the existing entry (the ``mem_load_retired.fb_hit`` event); a load that
finds no entry and no free slot stalls the core
(``l1d_pend_miss.fb_full``).  LFB occupancy also caps the core's
memory-level parallelism, which is what makes slow CXL responses throttle
request issue (section 2.3's "limited memory-level parallelism").
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from .engine import Engine, Waiter
from .queues import QueueStats
from .request import MemRequest


class LFBEntry:
    """One in-flight line: its primary request and coalesced waiters."""

    __slots__ = ("line", "primary", "allocated_at", "waiters")

    def __init__(self, line: int, primary: MemRequest, allocated_at: float) -> None:
        self.line = line
        self.primary = primary
        self.allocated_at = allocated_at
        self.waiters: List[Callable[[float], None]] = []


class LineFillBuffer:
    """MSHR-style fill buffer for one core."""

    def __init__(self, engine: Engine, entries: int = 16, core_id: int = 0) -> None:
        if entries <= 0:
            raise ValueError("LFB needs at least one entry")
        self.engine = engine
        self.capacity = entries
        self.core_id = core_id
        # line -> entry of every line in flight (callers only read it).
        self.in_flight: Dict[int, LFBEntry] = {}
        self.stats = QueueStats(entries)
        self.space_waiter = Waiter(engine)
        self.fb_hits = 0          # loads coalesced onto an in-flight line
        self.allocations = 0

    @property
    def full(self) -> bool:
        return len(self.in_flight) >= self.capacity

    def __len__(self) -> int:
        return len(self.in_flight)

    def outstanding(self, line: int) -> Optional[LFBEntry]:
        return self.in_flight.get(line)

    def coalesce(self, line: int, on_fill: Callable[[float], None]) -> bool:
        """Attach a secondary load to an in-flight line.  True on fb-hit."""
        entry = self.in_flight.get(line)
        if entry is None:
            return False
        entry.waiters.append(on_fill)
        self.fb_hits += 1
        return True

    def allocate(self, request: MemRequest) -> Optional[LFBEntry]:
        """Reserve an entry for ``request``'s line; None when full."""
        in_flight = self.in_flight
        if len(in_flight) >= self.capacity:
            return None
        line = request.line
        if line in in_flight:
            raise ValueError(f"line {line:#x} already in flight in LFB")
        now = self.engine.now
        entry = in_flight[line] = LFBEntry(line, request, now)
        self.stats.on_insert(now)
        self.allocations += 1
        return entry

    def fill(self, line: int) -> LFBEntry:
        """Data returned: release the entry and wake coalesced loads."""
        entry = self.in_flight.pop(line, None)
        if entry is None:
            raise KeyError(f"no LFB entry for line {line:#x}")
        now = self.engine.now
        self.stats.on_remove(now)
        if entry.waiters:
            post = self.engine.post
            for waiter in entry.waiters:
                post(partial(waiter, now))
        if self.space_waiter._waiting:
            self.space_waiter.wake_one()
        return entry

    def sync(self, now: float) -> None:
        self.stats.sync(now)
