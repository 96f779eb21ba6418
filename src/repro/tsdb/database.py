"""In-memory time-series database (the paper's InfluxDB role, section 4.6).

PFMaterializer encapsulates each profiling snapshot as a compacted record
tagged with its timestamp and stores it in a time-series database, then
explores execution characteristics with Flux queries.  This module
provides the storage: each measurement is one list of :class:`Record`
rows (timestamp + tags + numeric fields) kept sorted by timestamp;
:class:`Query` (tsdb.query) gives the Flux-like pipeline on top.  It
holds a finished session (``PFMaterializer.from_result``), so nothing
is ever dropped; a live run keeps rolling state instead (``repro.live``).
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

    __slots__ = ("name", "_times", "_records")

    def __init__(self, name: str) -> None:
        self.name = name
        # Parallel to _records: bisect over plain floats, not records.
        self._times: List[float] = []
        self._records: List[Record] = []

    def insert(self, record: Record) -> None:
        times = self._times
        at = bisect.bisect_right(times, record.timestamp)
        times.insert(at, record.timestamp)
        self._records.insert(at, record)

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
    """A bag of named measurements plus the entry point for queries."""

    def __init__(self) -> None:
        self._measurements: Dict[str, Measurement] = {}

    def measurement(self, name: str) -> Measurement:
        table = self._measurements.get(name)
        if table is None:
            table = Measurement(name)
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
        """Per-measurement point counts."""
        return {
            name: {"points": len(table)}
            for name, table in sorted(self._measurements.items())
        }
