"""Incremental PFMaterializer: batch workflows plus O(1) rolling state.

``LiveMaterializer`` is a drop-in :class:`~repro.core.materializer
.PFMaterializer` whose backing TSDB keeps at most :data:`MAX_POINTS`
records per measurement and which additionally maintains, per tagged
series, the online operators of :mod:`repro.tsdb.operators`:

* per ``(pid, path, dst)`` hit series - rolling mean + online
  Holt-Winters forecast (the streaming half of the section 4.6 locality
  workflow);
* per core - rolling ops-completed mean;
* per co-resident pid pair - streaming Pearson over epoch-aligned
  LLC-hit series (the streaming half of :meth:`correlate`).

The batch workflows (``locality``, ``correlate``, ...) still run against
the same db.  Their series functions are folds over the same operators,
so while no record has been dropped they agree with the rolling views,
which ``tests/test_live.py`` checks every epoch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.builder import PathMap
from ..core.materializer import PATH_SET, VERTEX_SET, PFMaterializer
from ..core.snapshot import Snapshot
from ..tsdb import (
    OnlineHoltWinters,
    RollingMean,
    StreamingPearson,
    TimeSeriesDB,
)
from .spec import LiveSpec

#: Records kept per measurement; the oldest go first (see TimeSeriesDB).
MAX_POINTS = 100_000


class _SeriesState:
    """Rolling state for one tagged value series."""

    __slots__ = ("mean", "forecaster", "last", "scale", "count")

    def __init__(self, window: int) -> None:
        self.mean = RollingMean(window)
        self.forecaster = OnlineHoltWinters()
        self.last = 0.0
        self.scale = 0.0
        self.count = 0

    def push(self, value: float) -> None:
        self.mean.push(value)
        self.forecaster.push(value)
        self.last = value
        self.scale = max(self.scale, abs(value))
        self.count += 1


class LiveMaterializer(PFMaterializer):
    """PFMaterializer that keeps rolling answers warm while ingesting.

    ``spec.window`` is the rolling means' span; forecasts are one epoch
    ahead.  The db keeps the newest :data:`MAX_POINTS` records of each
    measurement.
    """

    def __init__(self, spec: Optional[LiveSpec] = None, socket: int = 0) -> None:
        self.spec = spec if spec is not None else LiveSpec()
        super().__init__(socket=socket, db=TimeSeriesDB(max_points=MAX_POINTS))
        self._paths: Dict[Tuple[str, str, str], _SeriesState] = {}
        self._core_ops: Dict[str, _SeriesState] = {}
        self._pearson: Dict[Tuple[str, str], StreamingPearson] = {}
        # Per-epoch scratch: pid -> LLC demand-read hits this epoch.
        self._epoch_hits: Dict[str, float] = {}

    # -- ingestion ------------------------------------------------------

    def _insert(
        self,
        measurement: str,
        timestamp: float,
        tags: Dict[str, str],
        fields: Dict[str, float],
    ) -> None:
        super()._insert(measurement, timestamp, tags=tags, fields=fields)
        window = self.spec.window
        if measurement == PATH_SET:
            key = (tags["pid"], tags["path"], tags["dst"])
            state = self._paths.get(key)
            if state is None:
                state = self._paths[key] = _SeriesState(window)
            hits = fields["hits"]
            state.push(hits)
            if tags["path"] == "DRd" and tags["dst"] == "LLC":
                pid = tags["pid"]
                self._epoch_hits[pid] = self._epoch_hits.get(pid, 0.0) + hits
        elif measurement == VERTEX_SET and tags.get("component") == "core":
            core = tags["core"]
            state = self._core_ops.get(core)
            if state is None:
                state = self._core_ops[core] = _SeriesState(window)
            state.push(fields.get("ops", 0.0))

    def ingest(self, snapshot: Snapshot, path_map: Optional[PathMap] = None) -> None:
        self._epoch_hits = {}
        super().ingest(snapshot, path_map)
        self._flush_epoch()

    def _flush_epoch(self) -> None:
        """Advance pairwise correlations with this epoch's aligned hits."""
        pids = sorted(p for p in self._epoch_hits if p != "-1")
        for i, a in enumerate(pids):
            for b in pids[i + 1 :]:
                pair = self._pearson.get((a, b))
                if pair is None:
                    pair = self._pearson[(a, b)] = StreamingPearson()
                pair.push(self._epoch_hits[a], self._epoch_hits[b])

    # -- rolling workflows ----------------------------------------------

    def rolling_locality(
        self, pid: int, path: str = "DRd", dst: str = "LLC"
    ) -> Dict[str, object]:
        """O(1) streaming view of the locality workflow: current rolling
        mean, next-epoch forecast and the 25%-of-scale predictability
        verdict, without touching the stored series."""
        state = self._paths.get((str(pid), path, dst))
        if state is None:
            return {
                "pid": pid,
                "mean": 0.0,
                "forecast": [],
                "predictable": False,
                "epochs": 0,
            }
        forecast = state.forecaster.forecast(1)
        scale = state.scale or 1.0
        predictable = bool(
            forecast
            and state.count >= 4
            and abs(forecast[0] - state.last) <= 0.25 * scale
        )
        return {
            "pid": pid,
            "mean": state.mean.value,
            "forecast": forecast,
            "predictable": predictable,
            "epochs": state.count,
        }

    def rolling_correlate(self, pid_a: int, pid_b: int) -> float:
        """Streaming Pearson between two apps' epoch-aligned LLC hits."""
        a, b = sorted((str(pid_a), str(pid_b)))
        pair = self._pearson.get((a, b))
        return pair.value if pair is not None else 0.0

    def rolling_core_ops(self, core: int) -> float:
        state = self._core_ops.get(str(core))
        return state.mean.value if state is not None else 0.0

    def tracked_pids(self) -> List[int]:
        pids = {key[0] for key in self._paths if key[0] != "-1"}
        return sorted(int(p) for p in pids)
