"""Central PMU counter registry.

A real PMU exposes per-unit MSRs that perf reads; here every simulated
architectural module increments named counters in one registry.  Counters
are keyed by ``(scope, event)`` where ``scope`` names the hardware instance
("core0", "cha3", "imc0.ch0", "cxl0", ...) and ``event`` is the perf-style
event name from the paper's Tables 1-4 (e.g. ``resource_stalls.sb``,
``unc_cha_tor_inserts.ia_drd.miss_cxl``).

Time-integrated counters (queue occupancy, not-empty cycles) cannot be
bumped eagerly - the integral depends on *when* it is read - so components
register :meth:`on_sync` hooks which the registry runs before any snapshot,
flushing integrals up to the current cycle.  This mirrors how perf stops
and reads MSRs at sample boundaries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

CounterKey = Tuple[str, str]


class Sampler:
    """One armed sampling counter (section 3.1's second PMU mode).

    Real PMUs fire an overflow interrupt when a counter crosses a
    programmed threshold; here the callback fires synchronously at the
    crossing, receives the current counter value, and the window re-arms
    (periodic sampling) unless :meth:`disarm` is called.
    """

    def __init__(self, scope: str, event: str, threshold: float,
                 callback: Callable[[float], None]) -> None:
        if threshold <= 0:
            raise ValueError("sampling threshold must be positive")
        self.scope = scope
        self.event = event
        self.threshold = threshold
        self.callback = callback
        self.next_fire = threshold
        self.fired = 0
        self.active = True

    def disarm(self) -> None:
        self.active = False

    def observe(self, value: float) -> None:
        while self.active and value >= self.next_fire:
            self.fired += 1
            self.next_fire += self.threshold
            self.callback(value)


class CounterRegistry:
    """All PMU counters of one simulated machine."""

    def __init__(self) -> None:
        self._counters: Dict[CounterKey, float] = defaultdict(float)
        self._sync_hooks: List[Callable[[float], None]] = []
        self._samplers: Dict[CounterKey, List[Sampler]] = {}
        # The cycle of the last sync, and whether any counter moved since.
        self._last_sync: Optional[float] = None
        self._dirty = True
        self._in_sync = False

    # -- update ----------------------------------------------------------

    def add(self, scope: str, event: str, value: float = 1.0) -> None:
        key = (scope, event)
        self._counters[key] += value
        self._dirty = True
        if self._samplers:
            for sampler in self._samplers.get(key, ()):
                sampler.observe(self._counters[key])

    def add_many(self, keys: Iterable[CounterKey], value: float = 1.0) -> None:
        """Bump several ``(scope, event)`` counters in a single call.

        The batch analogue of :meth:`add` for hot emission sites (TOR
        inserts, OCR scenario fan-out, L2 outcomes) that bump a tuple of
        keys built once per component; equivalent to calling ``add`` per
        key, in order, as long as the keys are distinct.
        """
        counters = self._counters
        for key in keys:
            counters[key] += value
        self._dirty = True
        if self._samplers:
            samplers = self._samplers
            for key in keys:
                for sampler in samplers.get(key, ()):
                    sampler.observe(counters[key])

    def arm_sampler(
        self, scope: str, event: str, threshold: float,
        callback: Callable[[float], None],
    ) -> Sampler:
        """Arm an overflow-style sampler on one counter."""
        sampler = Sampler(scope, event, threshold, callback)
        self._samplers.setdefault((scope, event), []).append(sampler)
        return sampler

    def set(self, scope: str, event: str, value: float) -> None:
        key = (scope, event)
        self._counters[key] = value
        self._dirty = True
        # Time-integrated counters are maintained via ``set`` from sync
        # hooks; samplers armed on them must see the flushed value, else
        # threshold crossings fire late (or never) on the next eager add.
        if self._samplers:
            for sampler in self._samplers.get(key, ()):
                sampler.observe(value)

    def on_sync(self, hook: Callable[[float], None]) -> None:
        """Register a flush hook run before every read/snapshot."""
        self._sync_hooks.append(hook)
        self._last_sync = None

    def clear_sync_hooks(self) -> None:
        """Forget every flush hook (their stages are being torn down)."""
        self._sync_hooks.clear()

    def sync(self, now: float) -> None:
        """Run every flush hook once per (timestamp, counter state).

        A mid-epoch reader (e.g. a tiering engine polling counters) and
        the epoch-boundary snapshot frequently sync at the *same* cycle;
        re-running the hooks would re-flush integrals and re-notify any
        armed sampler for the same window, double-counting observations.
        Hooks are skipped when nothing changed since the previous sync at
        this timestamp; together with the monotonic ``Sampler.next_fire``
        re-arm this makes a snapshot taken mid-epoch observation-exact.
        """
        if self._in_sync:
            return
        if not self._dirty and self._last_sync == now:
            return
        self._in_sync = True
        try:
            for hook in self._sync_hooks:
                hook(now)
        finally:
            self._in_sync = False
            self._last_sync = now
            self._dirty = False

    # -- read --------------------------------------------------------------

    def get(self, scope: str, event: str, default: float = 0.0) -> float:
        return self._counters.get((scope, event), default)

    def scoped(self, scope: str) -> Dict[str, float]:
        """All events of one hardware instance."""
        return {
            event: value
            for (s, event), value in self._counters.items()
            if s == scope
        }

    def matching(self, event_prefix: str) -> Dict[CounterKey, float]:
        """All counters whose event name starts with ``event_prefix``."""
        return {
            key: value
            for key, value in self._counters.items()
            if key[1].startswith(event_prefix)
        }

    def sum(self, event: str, scopes: Optional[Iterable[str]] = None) -> float:
        """Sum one event across hardware instances (perf's uncore --per-socket)."""
        if scopes is None:
            return sum(
                value for (s, e), value in self._counters.items() if e == event
            )
        scope_set = set(scopes)
        return sum(
            value
            for (s, e), value in self._counters.items()
            if e == event and s in scope_set
        )

    def snapshot(self, now: float) -> Dict[CounterKey, float]:
        """Flush integrals and return a point-in-time copy of every counter."""
        self.sync(now)
        return dict(self._counters)

    def scopes(self) -> List[str]:
        return sorted({scope for scope, _ in self._counters})

    def events(self, scope: str) -> List[str]:
        return sorted({e for s, e in self._counters if s == scope})

    def __len__(self) -> int:
        return len(self._counters)


def delta(
    after: Dict[CounterKey, float], before: Dict[CounterKey, float]
) -> Dict[CounterKey, float]:
    """Per-counter difference between two snapshots (an epoch's activity).

    Sparse: a counter that did not move is absent, so every consumer -
    the analyses, the session document, the live digest - sees one shape.
    """
    out = {}
    for key in set(after) | set(before):
        value = after.get(key, 0.0) - before.get(key, 0.0)
        if value:
            out[key] = value
    return out
