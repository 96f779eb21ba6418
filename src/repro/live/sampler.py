"""Per-epoch sim queue sampling for live dashboards.

The sim maintains :class:`~repro.sim.queues.QueueStats` meters on every
hardware FIFO unconditionally (recorder attached or not), so sampling
queue depth per epoch costs one ``sync`` + four subtractions per FIFO -
no :class:`EngineHooks` recorder attach, which would disable the
request freelist and slow the hot path.

The samples go into the epoch digest only (its ``hot_queues``); they
are not stored in the TSDB.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class QueueSampler:
    """Delta-samples every machine FIFO at epoch boundaries."""

    def __init__(self, machine: Any) -> None:
        self._stats: List[Tuple[str, Any]] = []
        for port in machine.hook_ports():
            for queue in port.queues:
                self._stats.append((queue.name, queue.stats))
            for name, stats in port.watched:
                self._stats.append((name, stats))
        self._last: Dict[str, Tuple[float, float, float]] = {}
        self._last_t = 0.0

    def sample(self, now: float) -> List[Dict[str, float]]:
        """Each queue's inserts, mean occupancy and not-empty fraction
        since the previous call."""
        duration = max(now - self._last_t, 1.0)
        out: List[Dict[str, float]] = []
        for name, stats in self._stats:
            stats.sync(now)
            prev = self._last.get(name, (0.0, 0.0, 0.0))
            inserts = float(stats.inserts)
            occupancy = stats.occupancy_integral
            not_empty = stats.cycles_not_empty
            out.append({
                "queue": name,
                "inserts": inserts - prev[0],
                "occupancy": (occupancy - prev[1]) / duration,
                "busy": (not_empty - prev[2]) / duration,
            })
            self._last[name] = (inserts, occupancy, not_empty)
        self._last_t = now
        return out
