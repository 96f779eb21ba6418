"""Job model, registry and event logs for the profiling daemon.

A :class:`ServeJob` is one accepted submission: the declarative
:class:`~repro.exec.runner.CampaignJob` it wraps, its lifecycle state,
and its :class:`EventLog`, which ``/v1/jobs/<id>/events`` replays to any
number of followers.  Every event also goes to the daemon-wide log that
``/v1/live`` follows, which keeps only the newest events.  Jobs are
mutated from worker threads and read from the asyncio loop, so every
state transition goes through :meth:`ServeJob.publish` / plain attribute
writes that are safe under the GIL (single writer per job; readers
tolerate slightly stale views).
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exec.runner import CampaignJob

# Lifecycle states.  queued -> running -> done | failed; jobs resolved
# from the cache at submission time are born done.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

TERMINAL_STATES = (DONE, FAILED)
#: Events after which a job's log carries nothing more: a terminal
#: state, or a hand-off to the journal at a workerless drain.
STREAM_END = TERMINAL_STATES + ("handed_off",)

#: Events the daemon-wide log holds; a follower further behind skips.
DAEMON_LOG_KEEP = 1024


class EventLog:
    """Append-only events that streams follow by position.

    Position ``n`` is the ``n``-th event ever appended.  With ``keep``,
    only the newest ``keep`` are held, and a reader whose cursor fell
    further behind resumes at the oldest one held.  Each append calls
    every waker from the appending thread; the wakers only tell a
    follower to look, so one that is already awake loses nothing.  A
    closed log wakes its wakers once more and appends nothing after.
    """

    def __init__(self, keep: Optional[int] = None) -> None:
        self.keep = keep
        self.closed = False
        #: Wake callbacks of the streams following this log.
        self.wakers: List[Callable[[], None]] = []
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._first = 0  # position of _events[0]

    def __len__(self) -> int:
        """Events ever appended: the position of the next one."""
        with self._lock:
            return self._first + len(self._events)

    def append(self, event: Dict[str, Any], close: bool = False) -> None:
        """Append ``event`` (and close the log with it, if ``close``)."""
        with self._lock:
            if self.closed:
                return
            events = self._events
            events.append(event)
            if self.keep is not None and len(events) >= 2 * self.keep:
                # Trimmed in bulk, so an append costs O(1) amortised.
                self._first += len(events) - self.keep
                del events[:-self.keep]
            if close:
                self.closed = True
        for wake in tuple(self.wakers):
            wake()

    def close(self) -> None:
        with self._lock:
            self.closed = True
        for wake in tuple(self.wakers):
            wake()

    def read(self, cursor: int) -> Tuple[int, List[Dict[str, Any]]]:
        """``(start, events)``: the events held from position ``cursor``
        on, the first at ``start``, which is past ``cursor`` when the
        reader fell more than ``keep`` events behind.  Costs O(events
        returned)."""
        with self._lock:
            start = cursor
            if self.keep is not None:
                end = self._first + len(self._events)
                start = max(cursor, end - self.keep)
            return start, self._events[start - self._first:]


def counters_from_session(document: Dict[str, Any]) -> List[List[Any]]:
    """Total ``[scope, event, value]`` rows from a session digest.

    Mirrors :func:`repro.api.counters`: continuous-mode sessions sum
    their epoch deltas; aggregated-mode digests store the final
    cumulative epoch, so the sum is that epoch.
    """
    totals: Dict[tuple, float] = {}
    for epoch in document.get("epochs", []):
        for scope, event, value in epoch.get("delta", []):
            totals[(scope, event)] = totals.get((scope, event), 0.0) + value
    return [[scope, event, value] for (scope, event), value in
            sorted(totals.items())]


@dataclass
class ServeJob:
    """One submission and everything the API reports about it."""

    job_id: str
    key: str
    job: CampaignJob
    priority: int = 10
    tag: str = ""
    tenant: str = "default"
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    cache_hit: bool = False
    failure: Optional[str] = None
    error: Optional[str] = None
    wall_time: float = 0.0
    events_executed: int = 0
    total_cycles: float = 0.0
    num_epochs: int = 0
    #: Total (scope, event) deltas as ``[scope, event, value]`` rows;
    #: populated when the job completes.
    counters: Optional[List[List[Any]]] = None
    #: The full session digest a completed job produced, served by the
    #: ``/v1/jobs/<id>/result`` member-protocol endpoint so a fleet
    #: coordinator can reconstruct the :class:`ProfileResult` remotely.
    #: Deliberately excluded from :meth:`as_dict` (it is large).
    session_document: Optional[Dict[str, Any]] = None
    #: The job's own log (each entry is one streamed NDJSON line); it
    #: closes with the job's :data:`STREAM_END` event.
    events: EventLog = field(default_factory=EventLog, repr=False,
                             compare=False)
    #: The daemon-wide log every event also goes to (``/v1/live``).
    daemon_log: Optional[EventLog] = field(default=None, repr=False,
                                           compare=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def publish(self, event: str, **data: Any) -> None:
        """Append one event to the job's log and the daemon's; a
        :data:`STREAM_END` event closes the job's log."""
        record = {
            "seq": len(self.events),
            "ts": time.time(),
            "job_id": self.job_id,
            "event": event,
        }
        record.update(data)
        record["event"] = event
        self.events.append(record, close=event in STREAM_END)
        if self.daemon_log is not None:
            self.daemon_log.append(record)

    def as_dict(self, include_counters: bool = True) -> Dict[str, Any]:
        status = {
            "job_id": self.job_id,
            "key": self.key,
            "tag": self.tag,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "failure": self.failure,
            "error": self.error,
            "wall_time": self.wall_time,
            "events_executed": self.events_executed,
            "total_cycles": self.total_cycles,
            "num_epochs": self.num_epochs,
            "num_events": len(self.events),
        }
        if include_counters:
            status["counters"] = self.counters
        return status


class JobStore:
    """Thread-safe registry of every job the daemon has accepted.

    Memory is bounded: terminal job records beyond ``max_terminal`` (or
    older than ``max_age_s``, when set) are pruned oldest-first, so a
    daemon serving sustained traffic does not grow without bound.  A
    pruned job's ``/v1/jobs/<id>`` lookup 404s -- the same answer an
    unknown id always got -- and its result remains reachable through
    the cache by key.
    """

    def __init__(self, *, max_terminal: int = 1024,
                 max_age_s: Optional[float] = None) -> None:
        if max_terminal < 0:
            raise ValueError("max_terminal must be non-negative")
        #: Every job's events, newest :data:`DAEMON_LOG_KEEP` held.
        self.daemon_log = EventLog(keep=DAEMON_LOG_KEEP)
        self._lock = threading.Lock()
        self._jobs: Dict[str, ServeJob] = {}
        self._by_key: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self.max_terminal = max_terminal
        self.max_age_s = max_age_s
        self.pruned = 0

    def new_job(self, key: str, job: CampaignJob, *, priority: int = 10,
                tag: str = "", tenant: str = "default",
                job_id: Optional[str] = None) -> ServeJob:
        """Register a submission; ``job_id`` is only passed on journal
        replay so a recovered job keeps its pre-crash identity."""
        if job_id is None:
            job_id = f"j{next(self._ids):05d}-{uuid.uuid4().hex[:8]}"
        record = ServeJob(job_id=job_id, key=key, job=job,
                          priority=priority, tag=tag, tenant=tenant,
                          daemon_log=self.daemon_log)
        with self._lock:
            self._jobs[job_id] = record
            self._by_key[key] = job_id
            self._prune_locked()
        return record

    def get(self, job_id: str) -> Optional[ServeJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def active_for_key(self, key: str) -> Optional[ServeJob]:
        """A queued/running job for this key, if any (dedupe target)."""
        with self._lock:
            job_id = self._by_key.get(key)
            job = self._jobs.get(job_id) if job_id else None
        if job is not None and not job.terminal:
            return job
        return None

    def jobs(self) -> List[ServeJob]:
        with self._lock:
            return list(self._jobs.values())

    def by_state(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def prune(self) -> int:
        """Apply the retention policy now; returns records dropped."""
        with self._lock:
            return self._prune_locked()

    def _prune_locked(self) -> int:
        terminal = [job for job in self._jobs.values() if job.terminal]
        victims: List[ServeJob] = []
        if self.max_age_s is not None:
            horizon = time.time() - self.max_age_s
            victims.extend(job for job in terminal
                           if (job.finished_at or job.submitted_at) < horizon)
        victim_ids = {job.job_id for job in victims}
        survivors = [job for job in terminal if job.job_id not in victim_ids]
        overflow = len(survivors) - self.max_terminal
        if overflow > 0:
            survivors.sort(key=lambda job: job.finished_at
                           or job.submitted_at)
            victims.extend(survivors[:overflow])
        for job in victims:
            self._jobs.pop(job.job_id, None)
            if self._by_key.get(job.key) == job.job_id:
                del self._by_key[job.key]
        self.pruned += len(victims)
        return len(victims)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
