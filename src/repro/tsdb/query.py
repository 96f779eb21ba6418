"""Flux-like query pipeline.

PFMaterializer translates user scenarios into query sequences like::

    db.from_("path_set")
      .where(mflow_pid="1234", dst="LLC")
      .range(start, stop)
      .values("hits")

Each stage returns a new :class:`Query` over a filtered record list;
terminal stages (``values``, ``min``/``max``/``mean``, ``pearsonr``,
``moving_average``, ``holt_winters``) produce numbers or series.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .database import Record
from .operators import (
    holt_winters,
    moving_average,
    pearsonr,
    series_avg,
    series_max,
    series_min,
)


class Query:
    """Immutable pipeline over a sequence of records."""

    def __init__(self, records: Sequence[Record]) -> None:
        self._records = records

    # -- filtering stages --------------------------------------------------

    def range(self, start: Optional[float] = None, stop: Optional[float] = None) -> "Query":
        return Query(
            [
                r
                for r in self._records
                if (start is None or r.timestamp >= start)
                and (stop is None or r.timestamp <= stop)
            ]
        )

    def where(self, **tags: str) -> "Query":
        """Keep records whose tags match all keyword equalities."""
        return Query(
            [
                r
                for r in self._records
                if all(r.tag(k) == v for k, v in tags.items())
            ]
        )

    def filter(self, predicate: Callable[[Record], bool]) -> "Query":
        return Query([r for r in self._records if predicate(r)])

    def group_by(self, tag: str) -> Dict[str, "Query"]:
        groups: Dict[str, List[Record]] = {}
        for record in self._records:
            groups.setdefault(record.tag(tag), []).append(record)
        return {key: Query(records) for key, records in groups.items()}

    # -- extraction ------------------------------------------------------------

    def records(self) -> List[Record]:
        return list(self._records)

    def timestamps(self) -> List[float]:
        return [r.timestamp for r in self._records]

    def values(self, field: str) -> List[float]:
        return [r.field(field) for r in self._records]

    def series(self, field: str) -> List[Tuple[float, float]]:
        return [(r.timestamp, r.field(field)) for r in self._records]

    def __len__(self) -> int:
        return len(self._records)

    @property
    def empty(self) -> bool:
        return not self._records

    # -- terminal operators ------------------------------------------------

    def min(self, field: str) -> float:
        return series_min(self.values(field))

    def max(self, field: str) -> float:
        return series_max(self.values(field))

    def mean(self, field: str) -> float:
        return series_avg(self.values(field))

    def sum(self, field: str) -> float:
        return float(sum(self.values(field)))

    def moving_average(self, field: str, window: int) -> List[float]:
        return moving_average(self.values(field), window)

    def holt_winters(self, field: str, horizon: int = 1, **kwargs) -> List[float]:
        return holt_winters(self.values(field), horizon=horizon, **kwargs)

    def pearsonr(self, field_x: str, field_y: str) -> float:
        return pearsonr(self.values(field_x), self.values(field_y))

    def pearsonr_with(self, other: "Query", field: str) -> float:
        """Correlate this query's series with another query's, aligned by
        snapshot order (cross-mFlow correlation, section 4.6 step 5).

        Fewer than two overlapping points carry no correlation signal;
        returns 0.0 rather than raising so streaming callers can poll
        before both series have warmed up.
        """
        x = self.values(field)
        y = other.values(field)
        n = min(len(x), len(y))
        if n < 2:
            return 0.0
        return pearsonr(x[:n], y[:n])
