"""Store Buffer (SB).

Per-core FIFO with dozens of entries decoupling store execution from
retirement (section 2.2, path #2).  A store occupies an entry from issue
until its cacheline write commits; commitment requires ownership, so a
store to a line not held in M/E triggers an RFO and the entry drains only
when that RFO's data returns.  When the SB fills the pipeline stalls - the
two scenarios the core PMU distinguishes (Table 1) are "loads still being
issued" (``resource_stalls.sb``) versus write-only pressure
(``exe_activity.bound_on_stores``).
"""

from __future__ import annotations

from typing import Optional

from .engine import Engine, Waiter
from .queues import QueueStats


class SBEntry:
    """One store waiting to commit: its line and issue cycle."""

    __slots__ = ("line", "issued_at")

    def __init__(self, line: int, issued_at: float) -> None:
        self.line = line
        self.issued_at = issued_at


class StoreBuffer:
    """Bounded store queue for one core.

    Entries are freed by the core model when the store's write commits
    (immediately for an owned line, or at RFO completion otherwise).
    Occupancy is metered so PFAnalyzer can reason about write intensity.
    """

    def __init__(self, engine: Engine, entries: int = 56, core_id: int = 0) -> None:
        if entries <= 0:
            raise ValueError("store buffer needs at least one entry")
        self.engine = engine
        self.capacity = entries
        self.core_id = core_id
        self._occupied = 0
        self.stats = QueueStats(entries)
        self.space_waiter = Waiter(engine)
        self.allocations = 0

    @property
    def full(self) -> bool:
        return self._occupied >= self.capacity

    def __len__(self) -> int:
        return self._occupied

    def allocate(self, line: int) -> Optional[SBEntry]:
        """Take an entry for a store to ``line``; None when full."""
        if self._occupied >= self.capacity:
            return None
        self._occupied += 1
        now = self.engine.now
        self.stats.on_insert(now)
        self.allocations += 1
        return SBEntry(line, now)

    def release(self, entry: SBEntry) -> None:
        """The store committed; free its slot and wake a stalled producer."""
        if self._occupied <= 0:
            raise ValueError("releasing into an empty store buffer")
        self._occupied -= 1
        self.stats.on_remove(self.engine.now)
        if self.space_waiter._waiting:
            self.space_waiter.wake_one()

    def sync(self, now: float) -> None:
        self.stats.sync(now)
