"""Streaming incremental profiling (``repro.live``).

Turns post-hoc batch analysis into continuous profiling: counter records
land in a capped TSDB as epochs complete, PFMaterializer workflows
update in O(1) per record via the online operators of ``repro.tsdb``,
and each epoch's digest goes to the run's ``on_epoch`` callback.  The
serve daemon fans those digests out through an :class:`IngestionBus`
to live dashboards (``GET /v1/live``, fleet-merged streams, the
``pathfinder live`` CLI verb).  See docs/OBSERVABILITY.md ("Live
profiling").
"""

from .bus import IngestionBus, LiveSubscription
from .dashboard import epoch_digest, render_live_event
from .materializer import LiveMaterializer
from .sampler import QueueSampler
from .spec import LiveSpec, coerce_live

__all__ = [
    "IngestionBus",
    "LiveMaterializer",
    "LiveSpec",
    "LiveSubscription",
    "QueueSampler",
    "coerce_live",
    "epoch_digest",
    "render_live_event",
]
