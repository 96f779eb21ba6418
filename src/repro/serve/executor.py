"""Synchronous job execution for the daemon's worker pool.

Each daemon worker hands one :class:`~repro.serve.jobs.ServeJob` at a
time to :meth:`JobExecutor.execute`, which runs on a thread but does all
the heavy lifting on a leased worker of the warm
:class:`~repro.exec.pool.WorkerPool` - the same outcome dicts and
wall-clock enforcement as a campaign, so a hung or crashed simulation
can never take the daemon down.  A worker that cannot be started fails
the attempt as ``spawn_failed`` (retried under the daemon's retry
budget, counted as ``pool_spawn_failure`` in ``/metricsz``); there is
no other execution path to fall back to.

The executor shares one :class:`~repro.exec.cache.ResultCache` across
every client of the daemon: a result computed for one caller is a warm
hit for all later ones, and the cache key doubles as the idempotency
token (resubmitting a spec returns the recorded session).
"""

from __future__ import annotations

import logging
import time
from typing import Optional

from ..durable.tenants import TenantRegistry
from ..exec.cache import ResultCache
from ..exec.pool import WorkerPool
from .jobs import DONE, FAILED, RUNNING, ServeJob, counters_from_session
from .metrics import ServeMetrics

logger = logging.getLogger(__name__)


class JobExecutor:
    """Runs jobs against the shared cache with bounded retries."""

    def __init__(
        self,
        cache: Optional[ResultCache],
        metrics: ServeMetrics,
        *,
        pool: WorkerPool,
        tenants: TenantRegistry,
        retries: int = 0,
        backoff: float = 0.25,
    ) -> None:
        self.cache = cache
        self.metrics = metrics
        self.retries = retries
        self.backoff = backoff
        #: The warm worker pool every job attempt runs on.
        self.pool = pool
        #: Per-tenant counters; a job's finish is counted before its
        #: terminal event, so a client woken by ``done`` reads it.
        self.tenants = tenants

    def execute(self, record: ServeJob) -> None:
        """Drive one job to a terminal state (never raises)."""
        try:
            self._execute(record)
        except Exception:  # noqa: BLE001 - a worker must never die
            logger.exception("serve job %s failed unexpectedly",
                             record.job_id)
            self._finish_failed(record, "error", "internal executor error")

    def _execute(self, record: ServeJob) -> None:
        record.state = RUNNING
        record.started_at = time.time()
        record.publish("started", key=record.key)

        # A twin submission may have populated the cache since this job
        # was enqueued; re-probe before paying for a worker process.
        if self.cache is not None and record.job.cacheable:
            entry = self.cache.get_entry(record.key)
            if entry is not None:
                meta = entry.get("meta", {})
                record.events_executed = int(meta.get("events_executed", 0))
                record.total_cycles = float(meta.get("total_cycles", 0.0))
                self._finish_done(record, entry["session"], cache_hit=True)
                return

        on_progress = None
        if record.job.live:
            # Per-epoch digests from the worker land in the job's event
            # log, which both /v1/jobs/<id>/events and /v1/live stream.
            def on_progress(digest):
                data = {k: v for k, v in digest.items() if k != "event"}
                record.publish("epoch", **data)

        outcome = None
        while True:
            record.attempts += 1
            record.publish("attempt", attempt=record.attempts)
            outcome = self.pool.run_job(
                record.job.spec,
                record.job.config,
                max_events=record.job.max_events,
                setup=record.job.setup,
                timeout=record.job.timeout,
                live=record.job.live,
                on_progress=on_progress,
                fidelity=record.job.fidelity,
            )
            record.wall_time += float(outcome.get("wall_time", 0.0))
            if outcome.get("ok"):
                break
            kind = outcome.get("kind", "error")
            if record.attempts > self.retries:
                self._finish_failed(record, kind, outcome.get("error"))
                return
            record.publish("retry", attempt=record.attempts, failure=kind)
            time.sleep(self.backoff * (2 ** (record.attempts - 1)))

        record.events_executed = int(outcome.get("events_executed", 0))
        record.total_cycles = float(outcome.get("total_cycles", 0.0))
        record.num_epochs = int(outcome.get("num_epochs", 0))
        document = outcome["document"]
        if self.cache is not None and record.job.cacheable:
            try:
                self.cache.put_document(
                    record.key,
                    document,
                    meta={
                        "tag": record.tag,
                        "wall_time": record.wall_time,
                        "events_executed": record.events_executed,
                        "total_cycles": record.total_cycles,
                    },
                )
            except OSError as exc:
                logger.warning("could not persist %s: %s", record.key, exc)
        self._finish_done(record, document, cache_hit=False)

    # -- terminal transitions --------------------------------------------

    def _finish_done(self, record: ServeJob, session_document,
                     cache_hit: bool) -> None:
        record.counters = counters_from_session(session_document)
        record.session_document = session_document
        record.cache_hit = cache_hit
        if cache_hit:
            record.num_epochs = len(session_document.get("epochs", []))
            self.metrics.inc("jobs_cache_hit")
        record.state = DONE
        record.finished_at = time.time()
        self.metrics.inc("jobs_completed")
        self.metrics.observe_job(record.wall_time, tenant=record.tenant)
        self.tenants.on_finish(record.tenant, ok=True)
        record.publish(
            "done",
            cache_hit=cache_hit,
            wall_time=record.wall_time,
            events_executed=record.events_executed,
            total_cycles=record.total_cycles,
            counters=record.counters,
        )

    def _finish_failed(self, record: ServeJob, kind: str,
                       error: Optional[str]) -> None:
        record.failure = kind
        record.error = error
        record.state = FAILED
        record.finished_at = time.time()
        self.metrics.inc("jobs_failed")
        self.tenants.on_finish(record.tenant, ok=False)
        record.publish("failed", failure=kind, error=error,
                       attempts=record.attempts)
