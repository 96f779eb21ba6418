"""Streaming incremental profiling (``repro.live``).

While a live run is in flight, each epoch's path rows are folded into
O(1) rolling state (rolling means, forecasts and correlations, via the
online operators of ``repro.tsdb``), and each epoch's digest goes to the
run's ``on_epoch`` callback.  The serve daemon appends those digests to
the job's event log, which ``GET /v1/jobs/<id>/events``, the daemon-wide
``GET /v1/live``, fleet-merged streams and the ``pathfinder live`` CLI
verb read.  A finished run materializes for batch workflows through
``PFMaterializer.from_result``.  See docs/OBSERVABILITY.md ("Live
profiling").
"""

from .dashboard import epoch_digest, render_live_event
from .materializer import LiveMaterializer
from .sampler import QueueSampler
from .spec import LiveSpec, coerce_live

__all__ = [
    "LiveMaterializer",
    "LiveSpec",
    "QueueSampler",
    "coerce_live",
    "epoch_digest",
    "render_live_event",
]
