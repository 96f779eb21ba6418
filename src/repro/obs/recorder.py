"""Request-path flight recorder.

The recorder samples 1-in-N memory requests at creation and stamps a hop
event (component, enq/deq, timestamp) on each sampled request as it
moves through the Clos stages.  Components hold a ``recorder`` attribute
that is ``None`` unless a profiling spec asked for tracing, so the
disabled path costs one attribute test per hop site and nothing else.

Everything here is duck-typed against the simulator: a "request" is any
object with ``core_id`` / ``path`` / ``address`` / ``issue_time`` and a
writable ``trace`` slot, a "queue" is anything exposing ``name`` and a
``stats`` object with ``sync``/``occupancy_integral``.  That keeps
``repro.obs`` importable below both ``repro.sim`` and ``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .histogram import LogHistogram

#: Stage names in request-path order.  These are the coarse per-stage
#: intervals the report and the validation layer reason about; queue-level
#: hops (``q:imc0.ch0.rpq`` etc.) ride alongside for Perfetto drill-down.
CANONICAL_STAGES = ("LFB", "L2", "LLC", "IMC", "FlexBus+MC", "CXL_MC")

ENQ = "enq"
DEQ = "deq"


@dataclass
class HopEvent:
    """One timestamped transition at a component boundary."""

    component: str
    kind: str        # "enq" | "deq"
    t: float


@dataclass
class RequestTrace:
    """The recorded life of one sampled request.

    ``local_id`` is the recorder's own sequence number - unlike the
    simulator-global ``req_id`` it is deterministic across runs within a
    process, which is what makes traced runs reproducible.
    """

    local_id: int
    req_id: int
    core_id: int
    path: str
    address: int
    issue_time: float
    events: List[HopEvent] = field(default_factory=list)
    completion_time: Optional[float] = None
    serve_location: Optional[str] = None

    def intervals(self) -> List[Tuple[str, float, float]]:
        """Matched ``(component, t_enq, t_deq)`` residency intervals.

        Pairs each ``deq`` with the most recent unmatched ``enq`` of the
        same component (stages can nest, e.g. CXL_MC inside FlexBus+MC).
        Unmatched enqueues (request still in flight at session end) are
        dropped.
        """
        open_by_component: Dict[str, List[float]] = {}
        out: List[Tuple[str, float, float]] = []
        for event in self.events:
            if event.kind == ENQ:
                open_by_component.setdefault(event.component, []).append(event.t)
            else:
                stack = open_by_component.get(event.component)
                if stack:
                    out.append((event.component, stack.pop(), event.t))
        return out

    def to_dict(self) -> Dict:
        return {
            "local_id": self.local_id,
            "req_id": self.req_id,
            "core_id": self.core_id,
            "path": self.path,
            "address": self.address,
            "issue_time": self.issue_time,
            "events": [[e.component, e.kind, e.t] for e in self.events],
            "completion_time": self.completion_time,
            "serve_location": self.serve_location,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RequestTrace":
        trace = cls(
            local_id=data["local_id"],
            req_id=data["req_id"],
            core_id=data["core_id"],
            path=data["path"],
            address=data["address"],
            issue_time=data["issue_time"],
            events=[HopEvent(c, k, t) for c, k, t in data.get("events", [])],
        )
        trace.completion_time = data.get("completion_time")
        trace.serve_location = data.get("serve_location")
        return trace


@dataclass
class TraceReport:
    """Aggregated output of one traced session."""

    sample_every: int
    requests_seen: int = 0
    requests_traced: int = 0
    duration: float = 0.0
    stage_histograms: Dict[str, LogHistogram] = field(default_factory=dict)
    # queue name -> [[epoch_end_cycle, mean_depth_over_epoch], ...]
    queue_occupancy: Dict[str, List[List[float]]] = field(default_factory=dict)
    # cache name -> {"hits": n, "misses": n}
    cache_lookups: Dict[str, Dict[str, int]] = field(default_factory=dict)
    traces: List[RequestTrace] = field(default_factory=list)
    # Fast-forwarded spans as [t_start, t_end] cycle pairs - dashboards
    # must render these as extrapolated, not measured (repro.sim.warp).
    warp_spans: List[List[float]] = field(default_factory=list)

    def stage_mean_residency(self) -> Dict[str, float]:
        return {
            stage: hist.mean
            for stage, hist in self.stage_histograms.items()
            if hist.count
        }

    def measured_queue_length(self, stage: str) -> float:
        """Little's-law L from ground truth: sampled rate x mean residency.

        Each traced interval stands for ``sample_every`` real requests,
        so the arrival rate is scaled back up before multiplying by the
        measured mean residency.
        """
        hist = self.stage_histograms.get(stage)
        if hist is None or hist.count == 0 or self.duration <= 0:
            return 0.0
        rate = hist.count * self.sample_every / self.duration
        return rate * hist.mean

    def to_dict(self) -> Dict:
        return {
            "sample_every": self.sample_every,
            "requests_seen": self.requests_seen,
            "requests_traced": self.requests_traced,
            "duration": self.duration,
            "stage_histograms": {
                stage: hist.to_dict()
                for stage, hist in self.stage_histograms.items()
            },
            "queue_occupancy": self.queue_occupancy,
            "cache_lookups": self.cache_lookups,
            "traces": [t.to_dict() for t in self.traces],
            "warp_spans": self.warp_spans,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TraceReport":
        return cls(
            sample_every=data["sample_every"],
            requests_seen=data.get("requests_seen", 0),
            requests_traced=data.get("requests_traced", 0),
            duration=data.get("duration", 0.0),
            stage_histograms={
                stage: LogHistogram.from_dict(h)
                for stage, h in data.get("stage_histograms", {}).items()
            },
            queue_occupancy={
                name: [[float(t), float(v)] for t, v in series]
                for name, series in data.get("queue_occupancy", {}).items()
            },
            cache_lookups=data.get("cache_lookups", {}),
            traces=[RequestTrace.from_dict(t) for t in data.get("traces", [])],
            warp_spans=[
                [float(a), float(b)] for a, b in data.get("warp_spans", [])
            ],
        )


class FlightRecorder:
    """Samples requests and accumulates their per-stage hop events."""

    def __init__(
        self,
        engine: Any,
        sample_every: int = 64,
        max_requests: int = 100_000,
    ) -> None:
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        if max_requests <= 0:
            raise ValueError("max_requests must be positive")
        self.engine = engine
        self.sample_every = sample_every
        self.max_requests = max_requests
        self.requests_seen = 0
        self.traces: List[RequestTrace] = []
        self._watched_queues: List[Tuple[str, Any]] = []
        self._queue_marks: Dict[str, Tuple[float, float]] = {}
        self._queue_series: Dict[str, List[List[float]]] = {}
        self._cache_lookups: Dict[str, Dict[str, int]] = {}
        self._warp_spans: List[List[float]] = []
        self._start = engine.now

    # -- sampling --------------------------------------------------------

    def maybe_trace(self, request: Any) -> Optional[RequestTrace]:
        """Called once per request creation; 1-in-N get a trace attached."""
        self.requests_seen += 1
        if (self.requests_seen - 1) % self.sample_every != 0:
            return None
        if len(self.traces) >= self.max_requests:
            return None
        trace = RequestTrace(
            local_id=len(self.traces),
            req_id=request.req_id,
            core_id=request.core_id,
            path=request.path.family,
            address=request.address,
            issue_time=request.issue_time,
        )
        request.trace = trace
        self.traces.append(trace)
        return trace

    # -- hop events ------------------------------------------------------

    def hop(self, request: Any, component: str, kind: str) -> None:
        trace = getattr(request, "trace", None)
        if trace is None:
            return
        trace.events.append(HopEvent(component, kind, self.engine.now))

    def complete(self, request: Any) -> None:
        trace = getattr(request, "trace", None)
        if trace is None or trace.completion_time is not None:
            return
        trace.completion_time = request.completion_time
        if request.serve_location is not None:
            trace.serve_location = request.serve_location.value

    # -- queue-level events (MonitoredQueue observer protocol) -----------

    @staticmethod
    def _request_of(item: Any) -> Optional[Any]:
        """Dig the MemRequest out of a queue item.

        Queue items are either the request itself or ``(request, cb)``
        tuples; link queues carry ``(flit_bytes, cb)`` with no request.
        """
        if hasattr(item, "req_id"):
            return item
        if isinstance(item, tuple) and item and hasattr(item[0], "req_id"):
            return item[0]
        return None

    def on_queue_push(self, queue: Any, item: Any) -> None:
        request = self._request_of(item)
        if request is not None:
            self.hop(request, f"q:{queue.name}", ENQ)

    def on_queue_pop(self, queue: Any, item: Any) -> None:
        request = self._request_of(item)
        if request is not None:
            self.hop(request, f"q:{queue.name}", DEQ)

    # -- occupancy time series -------------------------------------------

    def watch_queue(self, name: str, stats: Any) -> None:
        """Register a queue's ``QueueStats`` for the occupancy series."""
        self._watched_queues.append((name, stats))
        self._queue_marks[name] = (self.engine.now, stats.occupancy_integral)
        self._queue_series[name] = []

    def epoch_mark(self, now: float) -> None:
        """Close one occupancy interval per watched queue."""
        for name, stats in self._watched_queues:
            stats.sync(now)
            last_t, last_integral = self._queue_marks[name]
            elapsed = now - last_t
            if elapsed <= 0:
                continue
            mean = (stats.occupancy_integral - last_integral) / elapsed
            self._queue_series[name].append([now, mean])
            self._queue_marks[name] = (now, stats.occupancy_integral)

    # -- warp events -----------------------------------------------------

    def warp_mark(self, t_start: float, t_end: float) -> None:
        """Record one fast-forwarded span (see :mod:`repro.sim.warp`)."""
        self._warp_spans.append([t_start, t_end])

    # -- cache events ----------------------------------------------------

    def on_cache_lookup(self, name: str, hit: bool) -> None:
        counts = self._cache_lookups.setdefault(name, {"hits": 0, "misses": 0})
        counts["hits" if hit else "misses"] += 1

    # -- report ----------------------------------------------------------

    def report(self) -> TraceReport:
        report = TraceReport(
            sample_every=self.sample_every,
            requests_seen=self.requests_seen,
            requests_traced=len(self.traces),
            duration=max(self.engine.now - self._start, 0.0),
            queue_occupancy={
                name: list(series)
                for name, series in self._queue_series.items()
                if series
            },
            cache_lookups={
                name: dict(counts)
                for name, counts in self._cache_lookups.items()
            },
            traces=list(self.traces),
            warp_spans=[list(span) for span in self._warp_spans],
        )
        for trace in self.traces:
            for component, t_enq, t_deq in trace.intervals():
                hist = report.stage_histograms.get(component)
                if hist is None:
                    hist = report.stage_histograms[component] = LogHistogram()
                hist.add(t_deq - t_enq)
        return report


def persist_trace(db: Any, report: TraceReport, timestamp: float = 0.0) -> None:
    """Store a trace report's aggregates in a :class:`TimeSeriesDB`.

    One ``TRACE_STAGES`` record per stage (count, mean/p50/p95/max
    residency, Little's-law queue length) and one ``TRACE_QUEUES`` record
    per (queue, epoch) carrying the mean depth over that epoch.
    """
    for stage, hist in sorted(report.stage_histograms.items()):
        db.insert(
            "TRACE_STAGES",
            timestamp,
            tags={"stage": stage},
            fields={
                "count": float(hist.count),
                "mean_residency": hist.mean,
                "p50": hist.percentile(50.0),
                "p95": hist.percentile(95.0),
                "max": hist.max,
                "queue_length": report.measured_queue_length(stage),
            },
        )
    samples = [
        (t, name, mean)
        for name, series in sorted(report.queue_occupancy.items())
        for t, mean in series
    ]
    # Time-major, so each insert lands at the tail of the sorted list; the
    # stable sort keeps queues in name order within a timestamp.
    samples.sort(key=lambda sample: sample[0])
    for t, name, mean in samples:
        db.insert(
            "TRACE_QUEUES",
            t,
            tags={"queue": name},
            fields={"mean_depth": mean},
        )
