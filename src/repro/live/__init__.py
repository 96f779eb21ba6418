"""Streaming incremental profiling (``repro.live``).

Turns post-hoc batch analysis into continuous profiling: counter records
append to a retention-tiered TSDB as epochs complete, PFMaterializer
workflows update in O(1) per record via the online operators of
``repro.tsdb``, and an ingestion bus fans per-epoch digests out to live
dashboards (``GET /v1/live`` on serve, fleet-merged streams, the
``pathfinder live`` CLI verb).  See docs/OBSERVABILITY.md ("Live
profiling").
"""

from .bus import IngestionBus, LiveSubscription
from .dashboard import epoch_digest, render_live_event
from .materializer import LiveMaterializer
from .sampler import LIVE_QUEUES, QueueSampler
from .spec import LiveSpec, coerce_live

__all__ = [
    "IngestionBus",
    "LIVE_QUEUES",
    "LiveMaterializer",
    "LiveSpec",
    "LiveSubscription",
    "QueueSampler",
    "coerce_live",
    "epoch_digest",
    "render_live_event",
]
