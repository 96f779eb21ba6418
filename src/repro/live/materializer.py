"""Rolling state for live digests, folded epoch by epoch.

``LiveMaterializer`` keeps only what :func:`~repro.live.epoch_digest`
reads, updated in O(1) per record by the online operators of
:mod:`repro.tsdb.operators`:

* per ``(pid, path, dst)`` hit series - rolling mean + online
  Holt-Winters forecast (the streaming half of the section 4.6 locality
  workflow);
* per co-resident pid pair - streaming Pearson over epoch-aligned
  LLC-hit series (the streaming half of :meth:`correlate`).

It folds the same path rows :meth:`PFMaterializer.ingest` stores
(:func:`~repro.core.materializer.path_rows`), and the batch series
functions are folds over the same operators, so at every epoch the
rolling views agree with the batch workflows over the matching prefix
of ``PFMaterializer.from_result(result)``, which ``tests/test_live.py``
checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.builder import PathMap
from ..core.materializer import path_rows
from ..core.snapshot import Snapshot
from ..tsdb import OnlineHoltWinters, RollingMean, StreamingPearson
from .spec import LiveSpec


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


class LiveMaterializer:
    """Rolling answers kept warm while a live run ingests its epochs.

    ``spec.window`` is the rolling means' span; forecasts are one epoch
    ahead.
    """

    def __init__(self, spec: Optional[LiveSpec] = None) -> None:
        self.spec = spec if spec is not None else LiveSpec()
        self._paths: Dict[Tuple[str, str, str], _SeriesState] = {}
        self._pearson: Dict[Tuple[str, str], StreamingPearson] = {}

    # -- ingestion ------------------------------------------------------

    def ingest(self, snapshot: Snapshot, path_map: PathMap) -> None:
        """Fold one epoch's path rows into the rolling state."""
        window = self.spec.window
        # pid -> LLC demand-read hits this epoch.
        epoch_hits: Dict[str, float] = {}
        for tags, fields in path_rows(snapshot, path_map):
            key = (tags["pid"], tags["path"], tags["dst"])
            state = self._paths.get(key)
            if state is None:
                state = self._paths[key] = _SeriesState(window)
            hits = fields["hits"]
            state.push(hits)
            if tags["path"] == "DRd" and tags["dst"] == "LLC":
                pid = tags["pid"]
                epoch_hits[pid] = epoch_hits.get(pid, 0.0) + hits
        # Advance pairwise correlations with this epoch's aligned hits.
        pids = sorted(p for p in epoch_hits if p != "-1")
        for i, a in enumerate(pids):
            for b in pids[i + 1 :]:
                pair = self._pearson.get((a, b))
                if pair is None:
                    pair = self._pearson[(a, b)] = StreamingPearson()
                pair.push(epoch_hits[a], epoch_hits[b])

    # -- rolling workflows ----------------------------------------------

    def rolling_locality(
        self, pid: int, path: str = "DRd", dst: str = "LLC"
    ) -> Dict[str, object]:
        """O(1) streaming view of the locality workflow: current rolling
        mean, next-epoch forecast and the 25%-of-scale predictability
        verdict."""
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

    def tracked_pids(self) -> List[int]:
        pids = {key[0] for key in self._paths if key[0] != "-1"}
        return sorted(int(p) for p in pids)
