"""The fleet coordinator: N ``repro.serve`` daemons as one profiler.

:class:`FleetCoordinator` holds the member table (one
:class:`FleetMember` per daemon: a reusable :class:`ServeClient`, a down
mark, a coordinator-side submit-latency
:class:`~repro.obs.histogram.LogHistogram`) and routes every campaign
job by rendezvous (highest-random-weight) hashing on its exec-layer
cache key - the member that computed a result holds it warm, so
resubmitted and overlapping sweeps resolve as member-local cache hits
instead of recomputes.

:meth:`FleetCoordinator.shard_campaign` fans a ``run_many``-style job
list out over the members and returns a :class:`FleetCampaign` handle:
one driver thread per job submits, streams NDJSON progress into a
merged :class:`~repro.fleet.stream.EventMux`, and on member death or a
5xx answer marks the member down and reroutes to the next member in the
key's ranking, once per other member - a daemon killed mid-campaign
loses no jobs, its share is recomputed (or cache-hit) elsewhere.  That
in-band outcome is the only failure detector: there is no prober.  The
completed campaign is a :class:`FleetResult`, a
:class:`~repro.exec.runner.CampaignResult` subclass, so every existing
campaign consumer (``render_campaign``, ``summary()``, ``result_for``)
works unchanged.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.persistence import result_from_document
from ..exec.runner import CampaignJob, CampaignResult, JobRecord
from ..obs.histogram import LogHistogram
from ..serve.client import ServeClient, ServeError
from .stream import EventMux

logger = logging.getLogger(__name__)

#: Member addresses accepted by the coordinator.
MemberAddress = Union[str, Tuple[str, int], "FleetMember"]

#: Errors that mean "this member, not this job, is the problem".
_MEMBER_ERRORS = (ConnectionError, OSError, TimeoutError)

#: Seconds a member stays out of routing after a failed submit, stream
#: or result fetch (a success clears the mark sooner).
DOWN_S = 30.0

#: How long a submit waits out a busy (429) member before failing over.
_BUSY_WAIT_S = 300.0


def _weight(member_id: str, key: str) -> int:
    """Rendezvous weight of a member for a key (not security-sensitive)."""
    digest = hashlib.sha1(f"{member_id}#{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class NoMemberAvailable(RuntimeError):
    """Every candidate member was excluded or unreachable."""


@dataclass
class FleetMember:
    """One daemon in the member table."""

    member_id: str
    host: str
    port: int
    client: ServeClient = field(repr=False, default=None)  # type: ignore[assignment]
    #: Coordinator-side submit latency (milliseconds, log2 buckets).
    submit_latency_ms: LogHistogram = field(
        repr=False, default_factory=LogHistogram
    )
    #: ``time.monotonic()`` until which routing skips this member.
    down_until: float = field(repr=False, default=0.0)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def down(self) -> bool:
        return time.monotonic() < self.down_until

    def mark_down(self) -> None:
        self.down_until = time.monotonic() + DOWN_S

    def mark_up(self) -> None:
        self.down_until = 0.0


@dataclass
class FleetJobRecord(JobRecord):
    """A :class:`JobRecord` plus where the fleet ran it."""

    #: Member the job was first routed to (its primary unless down).
    routed_to: Optional[str] = None
    #: Member that actually completed (or terminally failed) the job.
    member_id: Optional[str] = None
    #: Times the job was rerouted to the next member in its ranking.
    failovers: int = 0
    #: The job id on the completing member.
    remote_job_id: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        status = super().as_dict()
        status.update(
            routed_to=self.routed_to,
            member_id=self.member_id,
            failovers=self.failovers,
            remote_job_id=self.remote_job_id,
        )
        return status


@dataclass
class FleetResult(CampaignResult):
    """A campaign outcome annotated with fleet placement."""

    members: List[str] = field(default_factory=list)

    @property
    def rerouted_jobs(self) -> int:
        return sum(1 for j in self.jobs if getattr(j, "failovers", 0) > 0)

    @property
    def locality(self) -> float:
        """Fraction of jobs served as a cache hit, from the member's own
        cache or, over a shared store, as a ``remote_hits`` pull.  With
        private caches a hit can only come from the member that computed
        the entry, so this is the resubmission affinity the rendezvous
        routing exists to maximise."""
        if not self.jobs:
            return 0.0
        return sum(1 for j in self.jobs if j.cache_hit) / len(self.jobs)

    def by_member(self) -> Dict[str, Dict[str, int]]:
        """Per-member tallies: jobs completed, cache hits, failures."""
        table: Dict[str, Dict[str, int]] = {}
        for job in self.jobs:
            member = getattr(job, "member_id", None) or "?"
            row = table.setdefault(
                member, {"jobs": 0, "ok": 0, "cache_hits": 0, "failed": 0}
            )
            row["jobs"] += 1
            if job.ok:
                row["ok"] += 1
            if job.cache_hit:
                row["cache_hits"] += 1
            if not job.ok:
                row["failed"] += 1
        return table

    def summary(self) -> Dict[str, Any]:
        summary = super().summary()
        summary.update(
            members=len(self.members),
            rerouted_jobs=self.rerouted_jobs,
            locality=self.locality,
        )
        return summary


class FleetCoordinator:
    """Routes campaign jobs across a daemon fleet."""

    def __init__(
        self,
        members: Sequence[MemberAddress] = (),
        *,
        tenant: Optional[str] = None,
    ) -> None:
        #: Tenant identity stamped on every member client this
        #: coordinator builds (prebuilt FleetMember clients are kept
        #: as-is).
        self.tenant = tenant
        self._members: Dict[str, FleetMember] = {}
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        for member in members:
            self.add_member(member)

    # -- membership ------------------------------------------------------

    def add_member(self, member: MemberAddress) -> FleetMember:
        """Add one daemon (``"host:port"``, ``(host, port)`` or a
        prebuilt :class:`FleetMember`) to the table."""
        if isinstance(member, FleetMember):
            record = member
        else:
            if isinstance(member, str):
                host, _, port = member.rpartition(":")
                if not host or not port.isdigit():
                    raise ValueError(
                        f"member address must be host:port, got {member!r}"
                    )
                host, port = host, int(port)
            else:
                host, port = member
            record = FleetMember(member_id=f"{host}:{port}",
                                 host=host, port=int(port))
        if record.client is None:
            record.client = ServeClient(host=record.host, port=record.port,
                                        tenant=self.tenant)
        with self._lock:
            return self._members.setdefault(record.member_id, record)

    def members(self) -> List[FleetMember]:
        with self._lock:
            return [self._members[m] for m in sorted(self._members)]

    def member(self, member_id: str) -> FleetMember:
        with self._lock:
            return self._members[member_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    # -- counters --------------------------------------------------------

    def _inc(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    # -- routing ---------------------------------------------------------

    def route(self, key: str,
              exclude: Sequence[str] = ()) -> Optional[FleetMember]:
        """The member that should run ``key`` right now.

        Ranks the members not in ``exclude`` by rendezvous weight for
        ``key`` - the first is the key's primary, the rest its failover
        order - and returns the first that is not marked down.  Adding
        or removing a member moves only the keys it ranks first for.
        If *every* candidate is down, the first one is returned anyway
        (trying a probably-dead member beats failing a job outright).
        """
        candidates = [m for m in self.members() if m.member_id not in exclude]
        candidates.sort(key=lambda m: _weight(m.member_id, key), reverse=True)
        for member in candidates:
            if not member.down:
                return member
        return candidates[0] if candidates else None

    # -- campaigns -------------------------------------------------------

    def shard_campaign(
        self,
        jobs: Sequence[CampaignJob],
        *,
        priority: int = 10,
        job_timeout: float = 600.0,
    ) -> "FleetCampaign":
        """Fan ``jobs`` out over the fleet; returns a live campaign handle.

        A job fails over to every other member once at most, and at most
        4 jobs per member are in flight at a time.  Jobs must be
        declarative - a ``setup`` hook or ``key_extra`` cannot travel
        over HTTP and would desynchronise the routing key from the
        member's cache key.
        """
        if not len(self):
            raise NoMemberAvailable("fleet has no members")
        jobs = list(jobs)
        for job in jobs:
            if job.setup is not None or job.key_extra is not None:
                raise ValueError(
                    f"fleet jobs must be declarative (tag={job.tag!r} has "
                    "a setup hook / key_extra, which cannot travel over "
                    "HTTP)"
                )
        return FleetCampaign(self, jobs, priority=priority,
                             job_timeout=job_timeout)

    def run_many(
        self,
        jobs: Sequence[CampaignJob],
        *,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        **options: Any,
    ) -> FleetResult:
        """Shard, stream (optionally into ``on_event``) and wait."""
        campaign = self.shard_campaign(jobs, **options)
        if on_event is not None:
            for event in campaign.events():
                on_event(event)
        return campaign.wait()

    # -- live streaming --------------------------------------------------

    def live_events(
        self,
        *,
        max_events: Optional[int] = None,
        timeout: Optional[float] = None,
        member_timeout: float = 600.0,
    ) -> Iterator[Dict[str, Any]]:
        """Merged ``/v1/live`` firehose across every fleet member.

        One follower thread per member streams that daemon's live NDJSON
        endpoint; events are funnelled through an
        :class:`~repro.fleet.stream.EventMux` and stamped with the
        originating ``member`` id.  An unreachable member contributes a
        single ``live_stream_error`` event instead of killing the merge.
        ``max_events`` bounds each *member's* stream (the daemon closes
        it after that many events); ``timeout`` bounds the merged
        iterator as a whole.
        """
        mux = EventMux()
        threads: List[threading.Thread] = []

        def follow(member: FleetMember) -> None:
            try:
                for event in member.client.live(max_events=max_events,
                                                timeout=member_timeout):
                    event["member"] = member.member_id
                    mux.publish(event)
            except Exception as exc:  # noqa: BLE001 - keep merge alive
                mux.publish({
                    "event": "live_stream_error",
                    "member": member.member_id,
                    "error": f"{type(exc).__name__}: {exc}",
                })
            finally:
                mux.detach()

        for member in self.members():
            mux.attach()
            thread = threading.Thread(
                target=follow, args=(member,), daemon=True,
                name=f"fleet-live-{member.member_id}",
            )
            threads.append(thread)
            thread.start()
        yield from mux.drain(timeout=timeout)

    # -- fleet-wide metrics ---------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """Roll every member's ``/metricsz`` up into one document.

        Unreachable members are reported, not fatal: the rollup is an
        ops surface and must answer during partial outages.
        """
        members_doc: Dict[str, Any] = {}
        totals = {
            "queue_depth": 0,
            "queue_capacity": 0,
            "in_flight": 0,
            "workers": 0,
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_cache_hit": 0,
            "jobs_failed": 0,
            "jobs_rejected": 0,
            "cache_entries": 0,
            "cache_bytes": 0,
        }
        reachable = 0
        tenant_rollup: Dict[str, Dict[str, int]] = {}
        for member in self.members():
            try:
                doc = member.client.metrics()
            except Exception as exc:  # noqa: BLE001
                members_doc[member.member_id] = {
                    "reachable": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "down": member.down,
                }
                continue
            reachable += 1
            queue_doc = doc.get("queue", {})
            counters = doc.get("counters", {})
            cache = doc.get("cache") or {}
            totals["queue_depth"] += int(queue_doc.get("depth", 0))
            totals["queue_capacity"] += int(queue_doc.get("capacity", 0))
            totals["in_flight"] += int(queue_doc.get("in_flight", 0))
            totals["workers"] += int(queue_doc.get("workers", 0))
            for name in ("jobs_submitted", "jobs_completed",
                         "jobs_cache_hit", "jobs_failed", "jobs_rejected"):
                totals[name] += int(counters.get(name, 0))
            totals["cache_entries"] += int(cache.get("entries", 0))
            totals["cache_bytes"] += int(cache.get("total_bytes", 0))
            for tenant, usage in (doc.get("tenants") or {}).items():
                row = tenant_rollup.setdefault(tenant, {
                    "queued": 0, "in_flight": 0, "submitted": 0,
                    "completed": 0, "failed": 0, "rejected": 0,
                })
                row["queued"] += int(usage.get("queued", 0))
                row["in_flight"] += int(usage.get("in_flight", 0))
                tenant_counters = usage.get("counters", {})
                for name in ("submitted", "completed", "failed",
                             "rejected"):
                    row[name] += int(tenant_counters.get(name, 0))
            hist = member.submit_latency_ms
            members_doc[member.member_id] = {
                "reachable": True,
                "down": member.down,
                "queue": queue_doc,
                "jobs_by_state": doc.get("jobs_by_state", {}),
                "counters": counters,
                "cache": cache,
                "submit_latency_ms": {
                    "count": hist.count,
                    "mean": hist.mean,
                    "p50": hist.percentile(50.0),
                    "p95": hist.percentile(95.0),
                    "p99": hist.percentile(99.0),
                    "max": hist.max,
                },
            }
        with self._lock:
            routing = dict(self._counters)
        submitted = routing.get("jobs_routed", 0)
        local_hits = routing.get("jobs_cache_hit", 0)
        return {
            "members_total": len(self),
            "members_reachable": reachable,
            "fleet": totals,
            "tenants": tenant_rollup,
            "routing": routing,
            "cache_hit_locality": (local_hits / submitted) if submitted
            else 0.0,
            "members": members_doc,
        }

    def drain(self) -> Dict[str, Any]:
        """Ask every member to drain-then-exit; reports who answered."""
        report: Dict[str, Any] = {}
        for member in self.members():
            try:
                member.client.shutdown()
                report[member.member_id] = {"draining": True}
            except Exception as exc:  # noqa: BLE001
                report[member.member_id] = {
                    "draining": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
        return report


class FleetCampaign:
    """A sharded campaign in flight: merged stream + result collection."""

    def __init__(
        self,
        coordinator: FleetCoordinator,
        jobs: List[CampaignJob],
        *,
        priority: int,
        job_timeout: float,
    ) -> None:
        self.coordinator = coordinator
        self.jobs = jobs
        self.priority = priority
        self.job_timeout = job_timeout
        self.records: List[FleetJobRecord] = [
            FleetJobRecord(index=i, tag=job.tag or f"job{i}", key=job.key())
            for i, job in enumerate(jobs)
        ]
        self.results: List[Optional[Any]] = [None] * len(jobs)
        self._mux = EventMux()
        self._started = time.monotonic()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, min(4 * len(coordinator), len(jobs))),
            thread_name_prefix="fleet-job",
        )
        for _ in jobs:
            self._mux.attach()
        self._futures = [
            self._pool.submit(self._drive, i) for i in range(len(jobs))
        ]
        self._pool.shutdown(wait=False)

    # -- public surface --------------------------------------------------

    def events(self, *, timeout: Optional[float] = None
               ) -> Iterator[Dict[str, Any]]:
        """The merged NDJSON progress stream, annotated per member."""
        return self._mux.drain(timeout=timeout)

    def wait(self, timeout: Optional[float] = None) -> FleetResult:
        """Block until every driver finished; returns the result."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for future in self._futures:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            future.result(timeout=remaining)
        return FleetResult(
            jobs=list(self.records),
            results=list(self.results),
            wall_time=time.monotonic() - self._started,
            workers=len(self.coordinator),
            members=[m.member_id for m in self.coordinator.members()],
        )

    @property
    def done(self) -> bool:
        return all(future.done() for future in self._futures)

    # -- the per-job driver ---------------------------------------------

    def _publish(self, i: int, member: Optional[FleetMember],
                 event: str, **data: Any) -> None:
        record = {
            "event": event,
            "tag": self.records[i].tag,
            "index": i,
            "member": member.member_id if member is not None else None,
            "ts": time.time(),
        }
        record.update(data)
        self._mux.publish(record)

    def _fail(self, i: int, member: Optional[FleetMember], kind: str,
              message: str) -> None:
        record = self.records[i]
        record.status = "failed"
        record.failure = record.failure or kind
        record.error = message
        if member is not None:
            record.member_id = member.member_id
        self.coordinator._inc("jobs_failed")
        self._publish(i, member, "job_failed", failure=record.failure,
                      error=message, failovers=record.failovers)

    def _drive(self, i: int) -> None:
        try:
            self._drive_inner(i)
        except Exception as exc:  # noqa: BLE001 - a driver must not vanish
            logger.exception("fleet job %s driver crashed",
                             self.records[i].tag)
            if self.records[i].status == "pending":
                self._fail(i, None, "error",
                           f"driver crashed: {type(exc).__name__}: {exc}")
        finally:
            self._mux.detach()

    def _drive_inner(self, i: int) -> None:
        job, record = self.jobs[i], self.records[i]
        coordinator = self.coordinator
        tried: List[str] = []
        while True:
            member = coordinator.route(record.key, exclude=tried)
            if member is None:
                self._fail(
                    i, None, "no_member",
                    f"no fleet member available after trying {tried}",
                )
                return
            if record.routed_to is None:
                record.routed_to = member.member_id

            def reroute(reason: str) -> bool:
                """Mark the member bad; True if another may be tried."""
                member.mark_down()
                tried.append(member.member_id)
                record.failovers = len(tried)
                coordinator._inc("jobs_failed_over")
                self._publish(i, member, "member_failed", reason=reason,
                              failovers=record.failovers)
                if len(tried) >= len(coordinator):  # every member once
                    self._fail(
                        i, member, "member_lost",
                        f"gave up after {len(tried)} members: {reason}",
                    )
                    return False
                return True

            # -- submit --------------------------------------------------
            began = time.monotonic()
            try:
                remote = member.client.submit_run(
                    job.spec, job.config,
                    tag=record.tag,
                    priority=self.priority,
                    timeout=job.timeout,
                    max_events=job.max_events,
                    cacheable=job.cacheable,
                    retry_on_busy=True,
                    max_wait=_BUSY_WAIT_S,
                )
            except ServeError as exc:
                if exc.status >= 500 or exc.status == 429:
                    if reroute(f"submit answered {exc.status}"):
                        continue
                    return
                self._fail(i, member, "error",
                           f"member rejected the job: {exc}")
                return
            except _MEMBER_ERRORS as exc:
                if reroute(f"submit failed: {type(exc).__name__}: {exc}"):
                    continue
                return
            member.mark_up()
            member.submit_latency_ms.add(
                max(0.0, (time.monotonic() - began) * 1e3)
            )
            coordinator._inc("jobs_routed")
            record.attempts += 1
            record.remote_job_id = remote["job_id"]
            self._publish(i, member, "routed", remote_job_id=record.remote_job_id,
                          key=record.key, state=remote.get("state"),
                          failovers=record.failovers)

            # -- follow to a terminal state ------------------------------
            try:
                final = self._follow(i, member, remote)
            except _MEMBER_ERRORS as exc:
                if reroute(f"stream lost: {type(exc).__name__}: {exc}"):
                    continue
                return
            if final is None:
                # Stream ended with no terminal event: the daemon died
                # (or force-stopped) with the job in flight.
                if reroute("member died with the job in flight"):
                    continue
                return

            # -- finalize ------------------------------------------------
            if final["state"] == "done":
                try:
                    document = member.client.result(final["job_id"])
                except (ServeError, *_MEMBER_ERRORS) as exc:
                    # Done but unfetchable (daemon died between the
                    # terminal event and our fetch): recompute elsewhere.
                    if reroute(f"result fetch failed: {exc}"):
                        continue
                    return
                self._finalize_done(i, member, final, document)
                return
            # The *job* failed on a healthy member (timeout, budget,
            # simulation error): that is a job outcome, not a member
            # outcome - rerouting would just re-fail elsewhere.
            record.attempts = max(record.attempts,
                                  int(final.get("attempts") or 1))
            record.wall_time += float(final.get("wall_time") or 0.0)
            record.failure = final.get("failure") or "error"
            self._fail(i, member, record.failure,
                       final.get("error") or "job failed on member")
            return

    def _follow(self, i: int, member: FleetMember,
                remote: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Stream the remote job's events; return its final status.

        Returns None when the stream ended without a terminal event
        (member death); raises a member error on connection loss.
        """
        job_id = remote["job_id"]
        if remote.get("state") in ("done", "failed"):
            return remote  # born terminal (admission-time cache hit)
        terminal = None
        for event in member.client.events(job_id,
                                          timeout=self.job_timeout):
            name = event.get("event")
            self._publish(i, member, f"member:{name}",
                          remote_job_id=job_id, seq=event.get("seq"))
            if name in ("done", "failed"):
                terminal = name
        if terminal is None:
            return None
        return member.client.job(job_id)

    def _finalize_done(self, i: int, member: FleetMember,
                       final: Dict[str, Any],
                       document: Dict[str, Any]) -> None:
        record = self.records[i]
        cache_hit = bool(final.get("cache_hit"))
        self.results[i] = result_from_document(document["session"])
        record.status = "cache_hit" if cache_hit else "ok"
        record.failure = record.error = None
        record.member_id = member.member_id
        record.attempts = max(record.attempts,
                              int(final.get("attempts") or 1))
        record.wall_time += float(final.get("wall_time") or 0.0)
        record.events_executed = int(final.get("events_executed") or 0)
        record.total_cycles = float(final.get("total_cycles") or 0.0)
        record.num_epochs = int(final.get("num_epochs") or 0)
        self.coordinator._inc("jobs_completed")
        if cache_hit:
            self.coordinator._inc("jobs_cache_hit")
        self._publish(i, member, "job_done", cache_hit=cache_hit,
                      wall_time=record.wall_time,
                      failovers=record.failovers)
