"""In-memory time-series database with Flux-like queries (InfluxDB stand-in).

PFMaterializer (section 4.6) layers a time-series database over the
profiler core; this package provides that substrate: measurements of
tagged records, a chainable query pipeline, the section's named operators
(movingAverage, holtWinters, pearsonr - each a fold over its online
operator), phase-window clustering, and trend/seasonality/residual
decomposition.
"""

from .clustering import Window, cluster_windows, dominant_window
from .database import Measurement, Record, TimeSeriesDB
from .operators import (
    OnlineHoltWinters,
    RollingMean,
    StreamingPearson,
    holt_winters,
    moving_average,
    pearsonr,
    series_avg,
    series_max,
    series_min,
)
from .query import Query
from .tsa import Decomposition, decompose, detect_period

__all__ = [
    "Decomposition",
    "Measurement",
    "OnlineHoltWinters",
    "Query",
    "Record",
    "RollingMean",
    "StreamingPearson",
    "TimeSeriesDB",
    "Window",
    "cluster_windows",
    "decompose",
    "detect_period",
    "dominant_window",
    "holt_winters",
    "moving_average",
    "pearsonr",
    "series_avg",
    "series_max",
    "series_min",
]
