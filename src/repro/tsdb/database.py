"""In-memory time-series database (the paper's InfluxDB role, section 4.6).

PFMaterializer encapsulates each profiling snapshot as a compacted record
tagged with its timestamp and stores it in a time-series database, then
explores execution characteristics with Flux queries.  This module
provides the storage: each measurement is one list of :class:`Record`
rows (timestamp + tags + numeric fields) kept sorted by timestamp;
:class:`Query` (tsdb.query) gives the Flux-like pipeline on top.

An optional ``max_points`` cap bounds a measurement's memory: once it
holds ``max_points + max(64, max_points // 8)`` records, the oldest are
dropped down to the cap and counted in ``dropped``, so the O(n)
front-drop is amortised over many inserts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional


@dataclass(frozen=True)
class Record:
    """One row: a timestamped, tagged bag of numeric fields."""

    timestamp: float
    tags: Mapping[str, str]
    fields: Mapping[str, float]

    def tag(self, key: str, default: str = "") -> str:
        return self.tags.get(key, default)

    def field(self, key: str, default: float = 0.0) -> float:
        return self.fields.get(key, default)


class Measurement:
    """Records ordered by timestamp; equal timestamps keep insert order."""

    __slots__ = ("name", "max_points", "dropped", "_times", "_records")

    def __init__(self, name: str, max_points: Optional[int] = None) -> None:
        self.name = name
        self.max_points = max_points
        #: Records dropped by the retention cap (observability counter).
        self.dropped = 0
        # Parallel to _records: bisect over plain floats, not records.
        self._times: List[float] = []
        self._records: List[Record] = []

    def insert(self, record: Record) -> None:
        times = self._times
        at = bisect.bisect_right(times, record.timestamp)
        times.insert(at, record.timestamp)
        self._records.insert(at, record)
        cap = self.max_points
        if cap is not None and len(times) >= cap + max(64, cap // 8):
            excess = len(times) - cap
            del times[:excess]
            del self._records[:excess]
            self.dropped += excess

    def range(
        self, start: Optional[float] = None, stop: Optional[float] = None
    ) -> List[Record]:
        """A copy of the records with ``start <= timestamp <= stop``."""
        lo = 0 if start is None else bisect.bisect_left(self._times, start)
        hi = (
            len(self._records)
            if stop is None
            else bisect.bisect_right(self._times, stop)
        )
        return self._records[lo:hi]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.range())


class TimeSeriesDB:
    """A bag of named measurements plus the entry point for queries.

    ``max_points`` caps every measurement (see :class:`Measurement`);
    ``None`` keeps everything.
    """

    def __init__(self, max_points: Optional[int] = None) -> None:
        if max_points is not None and max_points < 1:
            raise ValueError("max_points must be >= 1")
        self.max_points = max_points
        self._measurements: Dict[str, Measurement] = {}

    def measurement(self, name: str) -> Measurement:
        table = self._measurements.get(name)
        if table is None:
            table = Measurement(name, max_points=self.max_points)
            self._measurements[name] = table
        return table

    def insert(
        self,
        measurement: str,
        timestamp: float,
        tags: Optional[Mapping[str, str]] = None,
        fields: Optional[Mapping[str, float]] = None,
    ) -> Record:
        record = Record(
            timestamp=timestamp, tags=dict(tags or {}), fields=dict(fields or {})
        )
        self.measurement(measurement).insert(record)
        return record

    def from_(self, measurement: str) -> "Query":
        """Start a Flux-like query pipeline (``from(bucket: ...)``) over
        the measurement's records as of this call."""
        from .query import Query  # local import to avoid a cycle

        return Query(self.measurement(measurement).range())

    def measurements(self) -> List[str]:
        return sorted(self._measurements)

    def __contains__(self, measurement: str) -> bool:
        return measurement in self._measurements

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-measurement point counts and retention drops."""
        return {
            name: {"points": len(table), "dropped": table.dropped}
            for name, table in sorted(self._measurements.items())
        }
