"""Flux-style series operators.

The operators PFMaterializer's workflows call out in section 4.6:
``min()``, ``max()``, ``avg()``, ``movingAverage()``, ``holtWinters()``
(forecast of regular patterns) and ``pearsonr()`` (cross-flow correlation,
used by the bandwidth-partition case to reach r=0.998 in Figure 11-b).

Each of the last three has one implementation: an online operator that
consumes one point at a time in O(1) (O(season_length) once, at seasonal
initialisation) - :class:`RollingMean`, :class:`OnlineHoltWinters`,
:class:`StreamingPearson` - which ``repro.live`` advances per epoch.  The
series functions (:func:`moving_average`, :func:`holt_winters`,
:func:`pearsonr`) are folds over them, so a rolling view read mid-run and
a query over the stored series give the same numbers.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence

import numpy as np


def series_min(values: Sequence[float]) -> float:
    _require_nonempty(values)
    return float(np.min(values))


def series_max(values: Sequence[float]) -> float:
    _require_nonempty(values)
    return float(np.max(values))


def series_avg(values: Sequence[float]) -> float:
    _require_nonempty(values)
    return float(np.mean(values))


def moving_average(values: Sequence[float], window: int) -> List[float]:
    """Trailing moving average; the first ``window-1`` points average the
    prefix (InfluxDB emits fewer points; a full-length output is easier to
    align against the original series)."""
    _require_nonempty(values)
    rolling = RollingMean(window)
    return [rolling.push(float(v)) for v in values]


def holt_winters(
    values: Sequence[float],
    horizon: int = 1,
    alpha: float = 0.5,
    beta: float = 0.3,
    gamma: float = 0.3,
    season_length: Optional[int] = None,
) -> List[float]:
    """Holt-Winters forecast (additive seasonality when season_length set).

    Returns ``horizon`` forecast points past the end of the series, or an
    empty forecast for an empty series (streaming callers poll before the
    first epoch lands).  ``season_length`` of 0 or None is non-seasonal.
    Used to test whether an application's access pattern is predictable
    (section 4.6 step 4).
    """
    forecaster = OnlineHoltWinters(alpha, beta, gamma,
                                   season_length=season_length or None)
    for v in values:
        forecaster.push(float(v))
    return forecaster.forecast(horizon)


def pearsonr(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length series.

    Degenerate series - fewer than two points, or zero variance - carry
    no correlation signal and yield 0.0 (never NaN, never a raise), so
    streaming callers can query mid-warm-up.  A length mismatch is still
    a caller bug and raises.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    streaming = StreamingPearson()
    for a, b in zip(x, y):
        streaming.push(float(a), float(b))
    return streaming.value


def _require_nonempty(values: Sequence[float]) -> None:
    if len(values) == 0:
        raise ValueError("empty series")


class RollingMean:
    """Streaming ``movingAverage``: trailing window mean, prefix-averaged.

    ``push(v)`` returns the same value ``moving_average(series, window)``
    emits at that index: the mean of the last ``window`` points (or of
    the whole prefix while shorter than the window).
    """

    __slots__ = ("window", "_buf", "_sum", "_pushes")

    #: Recompute the running sum from the buffer periodically so float
    #: cancellation error cannot accumulate over millions of points.
    _RESYNC_EVERY = 4096

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._buf: Deque[float] = deque(maxlen=window)
        self._sum = 0.0
        self._pushes = 0

    def push(self, value: float) -> float:
        buf = self._buf
        if len(buf) == self.window:
            self._sum -= buf[0]
        buf.append(value)
        self._sum += value
        self._pushes += 1
        if self._pushes % self._RESYNC_EVERY == 0:
            self._sum = math.fsum(buf)
        return self._sum / len(buf)

    @property
    def value(self) -> float:
        return self._sum / len(self._buf) if self._buf else 0.0

    def __len__(self) -> int:
        return len(self._buf)


class OnlineHoltWinters:
    """Streaming ``holtWinters``; :func:`holt_winters` folds over it.

    Non-seasonal (double exponential) state updates in O(1) from the
    first point.  With ``season_length=m``, the first ``2m`` points are
    buffered; once the second season completes the classic
    initialisation runs (seasonal indices from the first two seasons,
    level / trend from their means) and the buffer replays through the
    seasonal recurrence - from then on each push is O(1).  ``forecast``
    uses the seasonal state once ``n >= 2m`` points have arrived and the
    double exponential state before that.
    """

    __slots__ = (
        "alpha",
        "beta",
        "gamma",
        "season_length",
        "count",
        "_level",
        "_trend",
        "_season",
        "_s_level",
        "_s_trend",
        "_warmup",
    )

    def __init__(
        self,
        alpha: float = 0.5,
        beta: float = 0.3,
        gamma: float = 0.3,
        season_length: Optional[int] = None,
    ) -> None:
        if season_length is not None and season_length < 1:
            raise ValueError("season_length must be >= 1")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_length = season_length
        self.count = 0
        # Non-seasonal (double exponential) state - always maintained.
        self._level = 0.0
        self._trend = 0.0
        # Seasonal state, live once the warm-up buffer has replayed.
        self._season: Optional[List[float]] = None
        self._s_level = 0.0
        self._s_trend = 0.0
        self._warmup: List[float] = []

    def push(self, value: float) -> None:
        i = self.count
        # Non-seasonal recurrence: level=v[0], trend=v[1]-v[0], then
        # smooth from i=1.
        if i == 0:
            self._level = value
            self._trend = 0.0
        else:
            if i == 1:
                self._trend = value - self._level
            prev = self._level
            self._level = self.alpha * value + (1 - self.alpha) * (
                self._level + self._trend
            )
            self._trend = (
                self.beta * (self._level - prev) + (1 - self.beta) * self._trend
            )
        self.count = i + 1
        m = self.season_length
        if not m:
            return
        if self._season is None:
            self._warmup.append(value)
            if len(self._warmup) == 2 * m:
                self._init_seasonal()
            return
        self._seasonal_step(i, value)

    def _init_seasonal(self) -> None:
        m = self.season_length
        warm = self._warmup
        season = [(warm[i] + warm[m + i]) / 2.0 for i in range(m)]
        mean = sum(season) / m
        season = [s - mean for s in season]
        first = sum(warm[:m]) / m
        second = sum(warm[m:]) / m
        self._season = season
        self._s_level = first
        self._s_trend = (second - first) / m
        for i, value in enumerate(warm):
            self._seasonal_step(i, value)
        self._warmup = []

    def _seasonal_step(self, i: int, value: float) -> None:
        season = self._season
        s_idx = i % self.season_length
        prev = self._s_level
        self._s_level = self.alpha * (value - season[s_idx]) + (
            1 - self.alpha
        ) * (self._s_level + self._s_trend)
        self._s_trend = (
            self.beta * (self._s_level - prev)
            + (1 - self.beta) * self._s_trend
        )
        season[s_idx] = (
            self.gamma * (value - self._s_level)
            + (1 - self.gamma) * season[s_idx]
        )

    @property
    def seasonal_active(self) -> bool:
        return self._season is not None

    def forecast(self, horizon: int = 1) -> List[float]:
        """``horizon`` points past the stream's end; ``[]`` before the
        first point."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        n = self.count
        if n == 0:
            return []
        if self._season is not None:
            m = self.season_length
            return [
                self._s_level
                + (h + 1) * self._s_trend
                + self._season[(n + h) % m]
                for h in range(horizon)
            ]
        return [self._level + (h + 1) * self._trend for h in range(horizon)]


class StreamingPearson:
    """Streaming ``pearsonr`` via Welford-style co-moments.

    Maintains means plus centred second moments (M2x, M2y) and the
    co-moment (Cxy); the correlation is ``Cxy / (sqrt(M2x) * sqrt(M2y))``
    - algebraically the population formula, numerically stable over
    millions of updates.  Taking each root apart keeps the denominator
    from underflowing when both variances are tiny (M2 near 1e-160).
    Degenerate input (n < 2, zero variance) reads 0.0; a constant series
    has exactly zero M2, so it reads exactly 0.0.
    """

    __slots__ = ("n", "_mean_x", "_mean_y", "_m2x", "_m2y", "_cxy")

    def __init__(self) -> None:
        self.n = 0
        self._mean_x = 0.0
        self._mean_y = 0.0
        self._m2x = 0.0
        self._m2y = 0.0
        self._cxy = 0.0

    def push(self, x: float, y: float) -> None:
        self.n += 1
        n = self.n
        dx = x - self._mean_x
        dy = y - self._mean_y
        self._mean_x += dx / n
        self._mean_y += dy / n
        dy2 = y - self._mean_y
        self._m2x += dx * (x - self._mean_x)
        self._m2y += dy * dy2
        self._cxy += dx * dy2

    @property
    def value(self) -> float:
        if self.n < 2:
            return 0.0
        denom = math.sqrt(self._m2x) * math.sqrt(self._m2y)
        if denom == 0.0:
            return 0.0
        return self._cxy / denom
