"""Set-associative caches with pluggable replacement.

Tag arrays are functional: workloads generate real addresses, so hit/miss
behaviour (and therefore every locality effect the paper measures - LFB hit
shifts, L2 hit drops under CXL, LLC occupancy changes) emerges from actual
reuse distances rather than from tuned probabilities.

Lines carry MESIF coherence states (section 2.2); the CHA's directory
drives the state transitions, the cache itself only stores them.

Hot-path layout: each set keeps a ``tag -> way`` index next to the
``way -> line`` store so lookup/probe/fill are O(1) dict probes instead of
linear tag scans; line objects are ``__slots__``-flat.  See docs/ENGINE.md.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional

from .request import CACHELINE


class MESIF(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"
    FORWARD = "F"

    __hash__ = object.__hash__  # identity: members are singletons


# Enum member lookups are attribute calls on CPython 3.11; the hot
# paths compare against these module-level aliases instead.
_INVALID = MESIF.INVALID
_MODIFIED = MESIF.MODIFIED


class CacheLine:
    """One resident line: tag, MESIF state, dirty bit, S3-FIFO metadata."""

    __slots__ = ("tag", "state", "dirty", "freq", "in_main")

    def __init__(
        self, tag: int, state: MESIF = MESIF.EXCLUSIVE, dirty: bool = False
    ) -> None:
        self.tag = tag
        self.state = state
        self.dirty = dirty
        self.freq = 0
        self.in_main = False


class EvictedLine:
    """What fell out of a set on fill: address plus write-back need."""

    __slots__ = ("address", "dirty", "state")

    def __init__(self, address: int, dirty: bool, state: MESIF) -> None:
        self.address = address
        self.dirty = dirty
        self.state = state


class ReplacementPolicy:
    """Interface of a non-LRU policy: pick a victim way within one set.

    LRU, the default, is the cache's own recency list (``policy`` None),
    kept inline in :meth:`Cache.lookup` and :meth:`Cache.fill`.
    """

    def touch(self, cache_set: "CacheSet", way: int) -> None:
        raise NotImplementedError

    def victim(self, cache_set: "CacheSet") -> int:
        raise NotImplementedError


class S3FIFOPolicy(ReplacementPolicy):
    """S3-FIFO (SOSP'23): small probationary FIFO + main FIFO + ghost.

    The paper models on-path components as "a variant of the FCFS queue
    (S3-FIFO)" in section 4.5, so we provide it as an alternative LLC
    policy.  New lines enter the small queue; lines re-referenced while
    there (freq > 0) are promoted into main on eviction; main evicts lazily,
    demoting once-unused lines.
    """

    def touch(self, cache_set: "CacheSet", way: int) -> None:
        cache_set.lines[way].freq = min(3, cache_set.lines[way].freq + 1)

    def victim(self, cache_set: "CacheSet") -> int:
        # Evict from the small (probationary) FIFO first.
        for attempt in range(2 * len(cache_set.recency)):
            if not cache_set.small_fifo and not cache_set.main_fifo:
                break
            if cache_set.small_fifo:
                way = cache_set.small_fifo[0]
                line = cache_set.lines[way]
                if line.freq > 0:
                    # promote to main
                    cache_set.small_fifo.popleft()
                    line.in_main = True
                    line.freq = 0
                    cache_set.main_fifo.append(way)
                    continue
                cache_set.small_fifo.popleft()
                return way
            way = cache_set.main_fifo[0]
            line = cache_set.lines[way]
            if line.freq > 0:
                cache_set.main_fifo.popleft()
                line.freq -= 1
                cache_set.main_fifo.append(way)
                continue
            cache_set.main_fifo.popleft()
            return way
        # Degenerate fallback: first valid way.
        return cache_set.recency[0]


class CacheSet:
    """One set: way->line store plus a tag->way index kept in lockstep.

    Only an S3-FIFO cache's sets carry the two FIFOs; an LRU set's are
    empty tuples (a deque is ~600 bytes, and an LLC slice has 10k sets).
    """

    __slots__ = ("lines", "tags", "recency", "small_fifo", "main_fifo")

    def __init__(self, fifos: bool = False) -> None:
        self.lines: Dict[int, CacheLine] = {}   # way -> line
        self.tags: Dict[int, int] = {}          # tag -> way (any state)
        self.recency: List[int] = []            # LRU order
        self.small_fifo: Deque[int] = deque() if fifos else ()   # S3-FIFO
        self.main_fifo: Deque[int] = deque() if fifos else ()


class Cache:
    """One level of set-associative cache (L1D, L2, or an LLC slice)."""

    __slots__ = (
        "name",
        "line_size",
        "ways",
        "num_sets",
        "sets",
        "policy",
        "hits",
        "misses",
        "observer",
    )

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        name: str = "cache",
        policy: str = "lru",
        line_size: int = CACHELINE,
    ) -> None:
        self.name = name
        self.line_size = line_size
        self.ways = ways
        # Round capacity down to a whole number of sets.
        self.num_sets = size_bytes // (ways * line_size)
        if self.num_sets < 1:
            raise ValueError(f"{name}: zero sets")
        self.sets: Dict[int, CacheSet] = {}
        # None is LRU over each set's recency list.
        self.policy: Optional[ReplacementPolicy]
        if policy == "lru":
            self.policy = None
        elif policy == "s3fifo":
            self.policy = S3FIFOPolicy()
        else:
            raise ValueError(f"unknown replacement policy: {policy}")
        self.hits = 0
        self.misses = 0
        # Optional flight-recorder hook (``on_cache_lookup(name, hit)``);
        # None unless a traced profiling session attached a recorder.
        self.observer = None

    # -- operations ---------------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLine]:
        """Probe the tag array.  Counts a hit/miss; updates recency on hit."""
        line_no = address // self.line_size
        num_sets = self.num_sets
        set_index = line_no % num_sets
        cache_set = self.sets.get(set_index)
        if cache_set is None:
            cache_set = self.sets[set_index] = CacheSet(self.policy is not None)
            way = None
        else:
            way = cache_set.tags.get(line_no // num_sets)
        if way is not None:
            line = cache_set.lines[way]
            if line.state is not _INVALID:
                self.hits += 1
                if self.observer is not None:
                    self.observer.on_cache_lookup(self.name, True)
                if touch:
                    policy = self.policy
                    if policy is None:
                        order = cache_set.recency
                        if order[-1] != way:
                            order.remove(way)
                            order.append(way)
                    else:
                        policy.touch(cache_set, way)
                return line
        self.misses += 1
        if self.observer is not None:
            self.observer.on_cache_lookup(self.name, False)
        return None

    def probe(self, address: int) -> Optional[CacheLine]:
        """Tag check with no side effects (used by snoops and tests)."""
        line_no = address // self.line_size
        cache_set = self.sets.get(line_no % self.num_sets)
        if cache_set is None:
            return None
        way = cache_set.tags.get(line_no // self.num_sets)
        if way is None:
            return None
        line = cache_set.lines[way]
        return line if line.state is not _INVALID else None

    def fill(
        self, address: int, state: MESIF = MESIF.EXCLUSIVE, dirty: bool = False
    ) -> Optional[EvictedLine]:
        """Install a line, returning whatever got evicted (if anything)."""
        line_no = address // self.line_size
        num_sets = self.num_sets
        set_index = line_no % num_sets
        tag = line_no // num_sets
        cache_set = self.sets.get(set_index)
        if cache_set is None:
            cache_set = self.sets[set_index] = CacheSet(self.policy is not None)
        tags = cache_set.tags
        # Refill of an already-present line just updates state.
        way = tags.get(tag)
        lines = cache_set.lines
        if way is not None:
            line = lines[way]
            line.state = state
            line.dirty = line.dirty or dirty
            return None
        recency = cache_set.recency
        policy = self.policy
        if len(lines) >= self.ways:
            if policy is None:
                way = recency.pop(0)
            else:
                way = policy.victim(cache_set)
                _discard(recency, way)
                _discard(cache_set.small_fifo, way)
                _discard(cache_set.main_fifo, way)
            victim = lines[way]
            del tags[victim.tag]
            evicted: Optional[EvictedLine] = None
            if victim.state is not _INVALID:
                evicted = EvictedLine(
                    (victim.tag * num_sets + set_index) * self.line_size,
                    victim.dirty or victim.state is _MODIFIED,
                    victim.state,
                )
            # The victim's line object takes the new line: nothing holds
            # a line across a fill of its set.
            victim.tag = tag
            victim.state = state
            victim.dirty = dirty
            victim.freq = 0
            victim.in_main = False
        else:
            evicted = None
            way = len(lines)
            while way in lines:
                way += 1
            lines[way] = CacheLine(tag, state, dirty)
        tags[tag] = way
        recency.append(way)
        if policy is not None:
            cache_set.small_fifo.append(way)
        return evicted

    def invalidate(self, address: int) -> Optional[CacheLine]:
        """Drop a line (snoop invalidation).  Returns the old line."""
        line_no = address // self.line_size
        cache_set = self.sets.get(line_no % self.num_sets)
        if cache_set is None:
            return None
        tag = line_no // self.num_sets
        way = cache_set.tags.get(tag)
        if way is None:
            return None
        line = cache_set.lines.pop(way)
        del cache_set.tags[tag]
        _discard(cache_set.recency, way)
        _discard(cache_set.small_fifo, way)
        _discard(cache_set.main_fifo, way)
        return line

    def set_state(self, address: int, state: MESIF) -> bool:
        line = self.probe(address)
        if line is None:
            return False
        line.state = state
        return True

    # -- introspection ---------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_sets * self.ways * self.line_size

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(
            1
            for cache_set in self.sets.values()
            for line in cache_set.lines.values()
            if line.state is not _INVALID
        )

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


def _discard(ways, way: int) -> None:
    """Remove ``way`` from a recency list or FIFO if it is there."""
    if way in ways:
        ways.remove(way)
