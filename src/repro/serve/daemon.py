"""The profiling-as-a-service daemon: asyncio HTTP front, process workers.

One long-lived process owns the warm :class:`~repro.exec.cache.ResultCache`
and a bounded priority queue; any number of clients submit
:class:`~repro.core.spec.ProfileSpec` documents over HTTP/JSON and stream
progress back as NDJSON.  The HTTP layer is a deliberately small
hand-rolled HTTP/1.1 server on ``asyncio`` streams (stdlib only,
persistent connections that carry one request at a time) - the API
surface is five JSON routes and one chunked stream, not a web
framework's worth of ambiguity.

Endpoints::

    POST /v1/run             submit one job        -> 202 {job}, 200 on
                                                      cache hit / dedupe
    POST /v1/campaign        submit a batch        -> 202 {jobs: [...]}
    GET  /v1/jobs            list jobs             -> 200 {jobs: [...]}
    GET  /v1/jobs/<id>       job status            -> 200 {job}
    GET  /v1/jobs/<id>/events  NDJSON event stream (chunked; events are
                               pushed as they are published; ends when
                               the job reaches a terminal state)
    GET  /v1/jobs/<id>/result  full session digest of a done job
                               (the fleet member protocol: coordinators
                               rebuild ProfileResults from this)
    GET  /v1/live            daemon-wide NDJSON firehose of every job
                             event, including per-epoch ``epoch``
                             digests of jobs submitted with
                             ``"live": true`` (``?max_events=N`` to
                             bound the stream)
    POST /v1/shutdown        begin drain-then-exit -> 202
    GET  /healthz | /readyz | /metricsz

Both streams follow an :class:`~repro.serve.jobs.EventLog` by position,
in one loop: a job's own log, or the daemon-wide log that keeps the
newest :data:`~repro.serve.jobs.DAEMON_LOG_KEEP` events.

Operational behaviour:

* **admission control** - a full queue rejects submissions with ``429``
  and a ``Retry-After`` estimated from recent job durations;
* **idempotency** - the exec-layer cache key is the job identity: a spec
  already in the cache resolves instantly (born-done job), a spec
  already queued/running dedupes onto the existing job;
* **budgets** - per-job wall-clock timeouts terminate the worker
  process; event budgets ride the existing
  :class:`~repro.sim.engine.SimulationBudgetExceeded` machinery;
* **graceful shutdown** - SIGTERM/SIGINT (or ``POST /v1/shutdown``)
  stops admission, drains queued and in-flight jobs, then exits; status
  and metrics endpoints keep answering while the drain runs;
* **persistent connections** - a JSON answer keeps its connection open
  for the next request (``Connection: keep-alive``) unless the request
  asked to close it or the daemon is draining; the two streams and
  ``POST /v1/shutdown`` close it.  An idle connection closes after
  ``REQUEST_READ_TIMEOUT_S`` and at once when a drain begins.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import logging
import math
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..core.persistence import (
    config_from_document,
    config_to_document,
    spec_from_document,
)
from ..durable import journal as wal
from ..durable.journal import JobJournal
from ..durable.store import PullThroughCache
from ..durable.tenants import (
    DEFAULT_TENANT,
    QuotaExceeded,
    TenantRegistry,
    WeightedFairQueue,
    valid_tenant_name,
)
from ..exec.cache import ResultCache, coerce_cache
from ..exec.pool import WorkerPool
from ..exec.runner import CampaignJob
from ..live.spec import LiveSpec
from ..sim.warp import WarpSpec, coerce_fidelity, fidelity_token
from .executor import JobExecutor
from .jobs import (
    DONE,
    EventLog,
    JobStore,
    ServeJob,
    counters_from_session,
)
from .metrics import ServeMetrics

logger = logging.getLogger(__name__)

#: Reading a request (line, headers, body) must finish within this; it
#: is also how long an open connection may sit idle between requests.
REQUEST_READ_TIMEOUT_S = 30.0
_MAX_BODY_BYTES = 64 * (1 << 20)


def _start_ndjson(writer: asyncio.StreamWriter) -> None:
    """Begin a chunked NDJSON stream; its end closes the connection."""
    conn = writer.transport.get_protocol()  # None once the peer is gone
    if conn is not None:
        conn.keep_alive = False
    writer.write(b"HTTP/1.1 200 OK\r\n"
                 b"Content-Type: application/x-ndjson\r\n"
                 b"Transfer-Encoding: chunked\r\n"
                 b"Connection: close\r\n\r\n")


def _write_chunk(writer: asyncio.StreamWriter, obj: Dict[str, Any]) -> None:
    line = (json.dumps(obj) + "\n").encode()
    writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")


@contextlib.contextmanager
def _wakeup(reader: asyncio.StreamReader
            ) -> Iterator[Tuple[asyncio.Event, Callable[[], None]]]:
    """The event a stream handler sleeps on, and the callback that sets it.

    Events are published on executor threads, so the callback hops onto
    the loop with ``call_soon_threadsafe``.  A handler clears the event
    before it reads what is new, so no wake-up is lost.  The event is
    also set when the client hangs up (``reader.at_eof()`` then holds),
    which releases a departed follower at once rather than at its next
    event.
    """
    loop = asyncio.get_running_loop()
    woken = asyncio.Event()

    def wake() -> None:
        try:
            loop.call_soon_threadsafe(woken.set)
        except RuntimeError:
            pass  # the loop is closed, and the stream with it

    async def watch_hangup() -> None:
        try:
            while await reader.read(1 << 16):
                pass  # a stream ends its connection: ignore stray bytes
        except OSError:
            pass  # a reset or timed-out connection is a hangup too
        woken.set()

    watcher = loop.create_task(watch_hangup())
    try:
        yield woken, wake
    finally:
        watcher.cancel()


class _Connection(asyncio.StreamReaderProtocol):
    """One accepted connection, registered with the daemon at accept.

    Registration happens in :meth:`connection_made`, before the handler
    task first runs, so a drain or a force stop can close every
    connection the loop accepted, including those accepted in its last
    turns.  ``idle`` is set while the connection waits for its next
    request; ``keep_alive`` says whether the answer being written may
    leave it open.
    """

    def __init__(self, daemon: "ServeDaemon") -> None:
        super().__init__(asyncio.StreamReader(), daemon._handle_connection)
        self.daemon = daemon
        self.transport: Optional[asyncio.Transport] = None
        self.idle = False
        self.keep_alive = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.daemon._connections.add(self)
        self.daemon.metrics.inc("connections_accepted")
        super().connection_made(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.daemon._connections.discard(self)
        super().connection_lost(exc)


class BadRequest(Exception):
    """Client error carrying the HTTP status to answer with."""

    def __init__(self, message: str, status: int = 400,
                 retry_after: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServeDaemon:
    """The daemon: queue, workers, metrics and the HTTP front-end."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8023,
        *,
        workers: int = 2,
        queue_depth: int = 64,
        cache: Union[None, bool, str, ResultCache] = True,
        retries: int = 0,
        timeout: Optional[float] = None,
        max_events: Optional[int] = None,
        tenants: Any = None,
        journal_dir: Any = None,
        shared_cache: Any = None,
        max_terminal_jobs: int = 1024,
        job_retention_s: Optional[float] = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_depth = queue_depth
        self.default_timeout = timeout
        self.default_max_events = max_events
        self.cache = coerce_cache(cache)
        if shared_cache is not None:
            if self.cache is None:
                raise ValueError(
                    "shared_cache needs a local cache tier to hydrate; "
                    "enable cache= as well"
                )
            self.cache = PullThroughCache(self.cache.root, shared_cache)
        if isinstance(tenants, TenantRegistry):
            self.tenants = tenants
        else:
            self.tenants = TenantRegistry(tenants)
        self.journal: Optional[JobJournal] = (
            JobJournal(journal_dir) if journal_dir is not None else None
        )
        self.store = JobStore(max_terminal=max_terminal_jobs,
                              max_age_s=job_retention_s)
        self.metrics = ServeMetrics()
        #: Warm worker pool shared by the daemon's worker threads; jobs
        #: reuse persistent forkserver processes instead of paying one
        #: spawn each (pool counters land in /metricsz as ``pool_*``).
        self.worker_pool = WorkerPool(
            workers=max(1, workers),
            metrics_hook=lambda event: self.metrics.inc(f"pool_{event}"),
        )
        self.executor = JobExecutor(self.cache, self.metrics, retries=retries,
                                    pool=self.worker_pool,
                                    tenants=self.tenants)
        self._seq = itertools.count()
        self._campaigns = itertools.count(1)
        self._queue: Optional[WeightedFairQueue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._worker_tasks: List[asyncio.Task] = []
        #: Every open connection, from accept to close.
        self._connections: Set[_Connection] = set()
        self._in_flight = 0
        self._draining = False
        self._shutdown_requested = False
        self._finished: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the worker tasks."""
        self._loop = asyncio.get_running_loop()
        # Made on the loop: before 3.10 an Event binds to the loop that
        # is current where it is made, not the one that awaits it.
        self._finished = asyncio.Event()
        self._queue = WeightedFairQueue(self.tenants)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.workers),
            thread_name_prefix="serve-worker",
        )
        if self.journal is not None:
            self._recover_journal()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port,
            family=socket.AF_INET,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.workers)
        ]
        logger.info("pathfinder-serve listening on http://%s:%d",
                    self.host, self.port)

    async def serve_forever(self) -> None:
        """Run until a shutdown request has fully drained; returns then."""
        if self._server is None:
            await self.start()
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
        await self._finished.wait()

    def request_shutdown(self) -> None:
        """Begin drain-then-exit; callable from signal handlers."""
        if self._shutdown_requested:
            return
        self._shutdown_requested = True
        self._draining = True
        logger.info("shutdown requested: draining %d queued, %d in flight",
                    self._queue.qsize() if self._queue else 0,
                    self._in_flight)
        # A connection between requests has nothing owed; one mid-request
        # closes after its answer.
        self._close_connections(idle_only=True)
        asyncio.ensure_future(self._drain_and_exit())

    def _close_connections(self, idle_only: bool = False) -> None:
        """Close every open connection (or only those between requests)."""
        for conn in list(self._connections):
            if conn.idle or not idle_only:
                conn.transport.abort()

    async def _stop_listening(self) -> None:
        """Stop accepting connections, then close the listener.

        asyncio builds an accepted connection's transport one loop turn
        after the accept and finishes the accept two turns later; a
        listener closed in between fails that transport and leaks the
        accepted socket.  So the listening socket stops being read
        first, the accepts in flight finish, and only then it closes.
        """
        if self._server is None:
            return
        for sock in self._server.sockets:
            self._loop.remove_reader(sock.fileno())
        for _ in range(3):
            await asyncio.sleep(0)
        self._server.close()

    async def _drain_and_exit(self) -> None:
        # Sentinels are served only once the backlog is empty, so workers
        # finish every queued job before exiting.
        for _ in range(max(1, self.workers)):
            self._queue.put_sentinel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks)
        else:
            # No workers (admission-test configs): nothing can drain, but
            # the queued jobs are still owed.  Journal each as handed off
            # so a successor daemon replaying this journal re-runs them
            # instead of losing them.
            while True:
                try:
                    record = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                record.publish("handed_off")
                self.tenants.on_handoff(record.tenant)
                if self.journal is not None:
                    self.journal.append(wal.HANDOFF, record.job_id)
                self.metrics.inc("jobs_handed_off")
        # Close the daemon log first: /v1/live streamers write what is
        # left and finish, so wait_closed() (which waits for in-flight
        # handlers on 3.12+) cannot deadlock on an open stream.  Job
        # streams end too: every job is terminal or handed off by now.
        self.store.daemon_log.close()
        await self._stop_listening()
        await self._server.wait_closed()
        self._pool.shutdown(wait=True)
        self.worker_pool.close()
        if self.journal is not None:
            self.journal.close()
        logger.info("drained; exiting")
        self._finished.set()

    async def _worker(self) -> None:
        while True:
            record = await self._queue.get()
            if record is None:
                break
            self._in_flight += 1
            self.tenants.on_start(record.tenant)
            if self.journal is not None:
                self.journal.append(wal.STARTED, record.job_id)
            try:
                await self._loop.run_in_executor(
                    self._pool, self.executor.execute, record
                )
            finally:
                self._in_flight -= 1
                # Only journal genuinely terminal outcomes: a cancelled
                # worker (force stop) leaves the record non-terminal and
                # the journal replays it on restart.
                if self.journal is not None and record.terminal:
                    kind = wal.COMPLETED if record.state == DONE \
                        else wal.FAILED
                    self.journal.append(kind, record.job_id)
                # A finished job may unblock its tenant's in-flight cap.
                self._queue.kick()
                self.store.prune()

    # -- recovery --------------------------------------------------------

    def _recover_journal(self) -> None:
        """Replay the journal and re-enqueue every unfinished job.

        Runs before the listener binds, so recovered work is queued ahead
        of any new traffic.  Recovery bypasses admission quotas and queue
        depth -- these jobs were already admitted (and journaled) once.
        A job whose result landed in the cache before the crash resolves
        as a cache hit when a worker picks it up, which is what makes the
        whole scheme exactly-once *in effect*.
        """
        recovery = self.journal.recover()
        recovered = 0
        for job_id, doc in recovery.unfinished:
            tenant = str(doc.get("tenant", DEFAULT_TENANT))
            try:
                job, priority, tag = self._parse_submission(doc, tenant)
            except BadRequest as exc:
                logger.warning("journal replay: job %s is unrecoverable "
                               "(%s); sealing it", job_id, exc)
                self.journal.append(wal.FAILED, job_id,
                                    {"error": f"unrecoverable replay: {exc}"})
                continue
            record = self.store.new_job(job.key(), job, priority=priority,
                                        tag=tag, tenant=tenant,
                                        job_id=job_id)
            record.publish("recovered", priority=priority, tenant=tenant)
            self.tenants.on_recovered(tenant)
            self.metrics.inc("jobs_recovered")
            self._queue.put_nowait(record, tenant=tenant, priority=priority)
            recovered += 1
        if recovery.records or recovery.corrupt:
            logger.info(
                "journal replay: %d records (%d corrupt) across %d "
                "segments; re-enqueued %d unfinished jobs",
                recovery.records, recovery.corrupt, recovery.segments,
                recovered,
            )
        if recovery.records:
            self.journal.compact()

    # -- submission ------------------------------------------------------

    def _parse_submission(
        self, body: Dict[str, Any], tenant: str = DEFAULT_TENANT
    ) -> Tuple[CampaignJob, int, str]:
        """Parse one submission body into ``(job, priority, tag)``."""
        if not isinstance(body, dict) or "spec" not in body:
            raise BadRequest('body must be a JSON object with a "spec"')
        try:
            spec = spec_from_document(body["spec"])
            config = config_from_document(body.get("config"))
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"malformed spec/config: {exc}") from exc
        if config is None:
            from .. import api

            config = api.config_for(spec)
        timeout = body.get("timeout", self.default_timeout)
        max_events = body.get("max_events", self.default_max_events)
        priority = int(body.get("priority", 10))
        tag = str(body.get("tag", ""))
        live_doc = body.get("live", False)
        if isinstance(live_doc, dict):
            try:
                live: Any = LiveSpec(**live_doc)
            except (TypeError, ValueError) as exc:
                raise BadRequest(f'malformed "live" spec: {exc}') from exc
        elif isinstance(live_doc, bool):
            live = live_doc
        else:
            raise BadRequest('"live" must be a bool or a LiveSpec object')
        fidelity_doc = body.get("fidelity", "exact")
        try:
            if isinstance(fidelity_doc, dict):
                fidelity: Any = WarpSpec.from_dict(fidelity_doc)
            else:
                fidelity = coerce_fidelity(fidelity_doc) or "exact"
        except (TypeError, ValueError) as exc:
            raise BadRequest(
                f'"fidelity" must be "exact", "adaptive" or a WarpSpec '
                f"object: {exc}"
            ) from exc
        job = CampaignJob(
            spec=spec,
            config=config,
            tag=tag,
            timeout=float(timeout) if timeout is not None else None,
            max_events=int(max_events) if max_events is not None else None,
            cacheable=bool(body.get("cacheable", True)),
            live=live,
            fidelity=fidelity,
        )
        return job, priority, tag

    @staticmethod
    def _journal_document(body: Dict[str, Any], job: CampaignJob,
                          priority: int, tag: str,
                          tenant: str) -> Dict[str, Any]:
        """The fully resolved submission the journal records.

        The derived config is serialized and the default timeout and
        budget are folded in, so replaying it after a crash rebuilds the
        identical job whatever the restarted daemon's defaults.
        """
        return {
            "spec": body["spec"],
            "config": body.get("config") or config_to_document(job.config),
            "priority": priority,
            "tag": tag,
            "tenant": tenant,
            "timeout": job.timeout,
            "max_events": job.max_events,
            "cacheable": job.cacheable,
            "live": body.get("live", False),
            "fidelity": fidelity_token(job.fidelity) or "exact",
        }

    def _retry_after(self) -> int:
        """Seconds a 429'd client should back off: one queue turn."""
        mean = self.metrics.mean_job_seconds() or 1.0
        turns = (self._queue.qsize() + self._in_flight) / max(1, self.workers)
        return max(1, min(60, int(math.ceil(mean * max(1.0, turns)))))

    def _admit(
        self,
        job: CampaignJob,
        priority: int,
        tag: str,
        tenant: str = DEFAULT_TENANT,
        *,
        body: Dict[str, Any],
        preauthorized: bool = False,
    ) -> Tuple[int, ServeJob, bool]:
        """Admission pipeline for one parsed job (``body`` is its
        submission).

        Returns ``(http_status, record, admitted_to_queue)``; raises
        :class:`BadRequest` with 429/503 when the job cannot be taken.
        ``preauthorized`` skips the per-job tenant quota check (campaign
        submission checks the whole batch up front).  Only a queued job
        is journaled, and the append happens *before* the 202 is
        returned -- the write-ahead discipline that makes a crash unable
        to lose an acked job.
        """
        if self._draining:
            raise BadRequest("daemon is draining; not accepting work",
                             status=503)
        key = job.key()
        existing = self.store.active_for_key(key)
        if existing is not None:
            return 200, existing, False
        if self.cache is not None and job.cacheable:
            entry = self.cache.get_entry(key)
            if entry is not None:
                record = self.store.new_job(key, job, priority=priority,
                                            tag=tag, tenant=tenant)
                meta = entry.get("meta", {})
                record.events_executed = int(meta.get("events_executed", 0))
                record.total_cycles = float(meta.get("total_cycles", 0.0))
                record.num_epochs = len(entry["session"].get("epochs", []))
                record.counters = counters_from_session(entry["session"])
                record.session_document = entry["session"]
                record.cache_hit = True
                record.state = DONE
                record.finished_at = time.time()
                record.publish("done", cache_hit=True,
                               counters=record.counters)
                self.metrics.inc("jobs_submitted")
                self.metrics.inc("jobs_cache_hit")
                self.metrics.inc("jobs_completed")
                self.tenants.on_cache_hit(tenant)
                return 200, record, False
        if not preauthorized:
            try:
                self.tenants.check_submit(tenant)
            except QuotaExceeded as exc:
                self.metrics.inc("jobs_rejected")
                raise BadRequest(str(exc), status=429,
                                 retry_after=exc.retry_after) from exc
        if self._queue.qsize() >= self.queue_depth:
            self.metrics.inc("jobs_rejected")
            raise BadRequest(
                f"queue full ({self.queue_depth} jobs deep)", status=429
            )
        record = self.store.new_job(key, job, priority=priority, tag=tag,
                                    tenant=tenant)
        if self.journal is not None:
            self.journal.append(wal.ADMITTED, record.job_id,
                                self._journal_document(body, job, priority,
                                                       tag, tenant))
        record.publish("queued", priority=priority, tag=tag, tenant=tenant)
        self.metrics.inc("jobs_submitted")
        self.tenants.on_enqueue(tenant)
        self._queue.put_nowait(record, tenant=tenant, priority=priority)
        return 202, record, True

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one connection's requests in turn until it closes."""
        conn = writer.transport.get_protocol()
        if conn is None:
            return  # lost (and closed) before its handler first ran
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), REQUEST_READ_TIMEOUT_S
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return
                except BadRequest as exc:
                    conn.keep_alive = False
                    await self._respond_json(
                        writer, exc.status, {"error": str(exc)}
                    )
                    return
                finally:
                    conn.idle = False
                if not await self._answer(reader, writer, conn, *request):
                    return
                conn.idle = True
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # noqa: BLE001
                # A shutdown cancel landing here ends a handler that is
                # done anyway; letting it escape makes Python 3.11's
                # stream protocol log a traceback for the connection.
                pass

    async def _answer(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Connection,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: Optional[Dict[str, Any]],
        keep_alive: bool,
    ) -> bool:
        """Answer one request; True when the connection stays open."""
        conn.keep_alive = keep_alive
        endpoint = "?"
        began = time.perf_counter()
        try:
            endpoint, handled = await self._route(
                reader, writer, method, path, headers, body
            )
            if not handled:
                await self._respond_json(
                    writer, 404, {"error": f"no route for {method} {path}"}
                )
        except ConnectionError:
            raise
        except Exception:  # noqa: BLE001 - a request must not kill the loop
            logger.exception("error handling request")
            conn.keep_alive = False
            try:
                await self._respond_json(
                    writer, 500, {"error": "internal server error"}
                )
            except Exception:  # noqa: BLE001
                pass
        finally:
            self.metrics.observe_request(endpoint,
                                         time.perf_counter() - began)
        return conn.keep_alive and not self._draining

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], Optional[Dict[str, Any]], bool]:
        """One request: method, target, headers, JSON body and whether
        the client lets the connection stay open after the answer."""
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise BadRequest(f"malformed request line: {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise BadRequest("request body too large", status=413)
        body: Optional[Dict[str, Any]] = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise BadRequest(f"request body is not JSON: {exc}") from exc
        keep_alive = parts[2] == "HTTP/1.1" \
            and headers.get("connection", "").lower() != "close"
        return method, target, headers, body, keep_alive

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        obj: Any,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        payload = (json.dumps(obj) + "\n").encode()
        conn = writer.transport.get_protocol()  # None once the peer is gone
        keep_alive = conn is not None and conn.keep_alive \
            and not self._draining
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 409: "Conflict",
                  413: "Payload Too Large",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}",
                "Connection: keep-alive" if keep_alive
                else "Connection: close"]
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()

    # -- routing ---------------------------------------------------------

    @staticmethod
    def _tenant_from(headers: Dict[str, str]) -> str:
        """The submitting tenant, from the identity header."""
        tenant = (headers or {}).get("x-pathfinder-tenant", "").strip()
        if not tenant:
            return DEFAULT_TENANT
        if not valid_tenant_name(tenant):
            raise BadRequest(f"invalid tenant name: {tenant!r}")
        return tenant

    async def _route(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> Tuple[str, bool]:
        """Dispatch one request; returns (endpoint template, handled)."""
        path, _, query = path.partition("?")
        if method == "GET" and path == "/healthz":
            await self._respond_json(writer, 200, {
                "status": "ok",
                "uptime_s": self.metrics.snapshot()["uptime_s"],
            })
            return "GET /healthz", True
        if method == "GET" and path == "/readyz":
            queue_full = self._queue.qsize() >= self.queue_depth
            if self._draining or queue_full:
                reason = "draining" if self._draining else "queue full"
                await self._respond_json(writer, 503, {
                    "ready": False, "reason": reason,
                })
            else:
                await self._respond_json(writer, 200, {"ready": True})
            return "GET /readyz", True
        if method == "GET" and path == "/metricsz":
            await self._respond_json(writer, 200, self._metrics_document())
            return "GET /metricsz", True
        if method == "GET" and path == "/v1/tenants":
            await self._respond_json(writer, 200,
                                     {"tenants": self.tenants.snapshot()})
            return "GET /v1/tenants", True
        if method == "POST" and path == "/v1/run":
            await self._handle_run(writer, headers, body)
            return "POST /v1/run", True
        if method == "POST" and path == "/v1/campaign":
            await self._handle_campaign(writer, headers, body)
            return "POST /v1/campaign", True
        if method == "GET" and path == "/v1/jobs":
            jobs = [j.as_dict(include_counters=False)
                    for j in self.store.jobs()]
            await self._respond_json(writer, 200, {"jobs": jobs})
            return "GET /v1/jobs", True
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if method == "GET" and rest.endswith("/events"):
                await self._handle_events(reader, writer,
                                          rest[:-len("/events")])
                return "GET /v1/jobs/<id>/events", True
            if method == "GET" and rest.endswith("/result"):
                await self._handle_result(writer, rest[:-len("/result")])
                return "GET /v1/jobs/<id>/result", True
            if method == "GET" and "/" not in rest:
                record = self.store.get(rest)
                if record is None:
                    await self._respond_json(
                        writer, 404, {"error": f"no such job: {rest}"}
                    )
                else:
                    await self._respond_json(writer, 200,
                                             {"job": record.as_dict()})
                return "GET /v1/jobs/<id>", True
        if method == "GET" and path == "/v1/live":
            await self._handle_live(reader, writer, query)
            return "GET /v1/live", True
        if method == "POST" and path == "/v1/shutdown":
            self.request_shutdown()
            await self._respond_json(writer, 202, {"draining": True})
            return "POST /v1/shutdown", True
        return f"{method} {path}", False

    async def _handle_run(
        self,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> None:
        try:
            tenant = self._tenant_from(headers)
            body = body or {}
            job, priority, tag = self._parse_submission(body, tenant)
            status, record, _ = self._admit(job, priority, tag, tenant,
                                            body=body)
        except BadRequest as exc:
            extra = ()
            if exc.status == 429:
                retry = exc.retry_after or self._retry_after()
                extra = (("Retry-After", str(retry)),)
            await self._respond_json(
                writer, exc.status, {"error": str(exc)}, extra
            )
            return
        await self._respond_json(writer, status, {"job": record.as_dict()})

    async def _handle_campaign(
        self,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> None:
        items = (body or {}).get("jobs")
        if not isinstance(items, list) or not items:
            await self._respond_json(
                writer, 400,
                {"error": 'body must carry a non-empty "jobs" array'},
            )
            return
        try:
            tenant = self._tenant_from(headers)
            parsed = [(item, *self._parse_submission(item, tenant))
                      for item in items]
        except BadRequest as exc:
            await self._respond_json(writer, exc.status,
                                     {"error": str(exc)})
            return
        # All-or-nothing admission: the batch either fits or 429s whole,
        # so a half-admitted sweep never needs client-side repair.  The
        # tenant's quota is checked for the whole batch for the same
        # reason; per-item admission below is then preauthorized.
        free = self.queue_depth - self._queue.qsize()
        if not self._draining and len(parsed) > free:
            self.metrics.inc("jobs_rejected", by=len(parsed))
            await self._respond_json(
                writer, 429,
                {"error": f"campaign of {len(parsed)} jobs exceeds free "
                          f"queue capacity {free}"},
                (("Retry-After", str(self._retry_after())),),
            )
            return
        if not self._draining:
            try:
                self.tenants.check_submit(tenant, n=len(parsed))
            except QuotaExceeded as exc:
                self.metrics.inc("jobs_rejected", by=len(parsed))
                retry = exc.retry_after or self._retry_after()
                await self._respond_json(
                    writer, 429, {"error": str(exc)},
                    (("Retry-After", str(retry)),),
                )
                return
        records = []
        try:
            for item, job, priority, tag in parsed:
                _, record, _ = self._admit(job, priority, tag, tenant,
                                           body=item, preauthorized=True)
                records.append(record)
        except BadRequest as exc:
            extra = (("Retry-After",
                      str(exc.retry_after or self._retry_after())),) \
                if exc.status == 429 else ()
            await self._respond_json(
                writer, exc.status,
                {"error": str(exc),
                 "jobs": [r.as_dict(include_counters=False)
                          for r in records]},
                extra,
            )
            return
        await self._respond_json(writer, 202, {
            "campaign_id": f"c{next(self._campaigns):05d}",
            "jobs": [r.as_dict(include_counters=False) for r in records],
        })

    async def _handle_result(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """Serve the full session digest of a completed job.

        409 while the job is still queued/running, 404 for unknown jobs
        and for failed jobs (which have no session to serve).  A done
        job whose in-memory document was dropped (e.g. recorded by an
        older daemon) falls back to the cache entry for its key.
        """
        record = self.store.get(job_id)
        if record is None:
            await self._respond_json(
                writer, 404, {"error": f"no such job: {job_id}"}
            )
            return
        if not record.terminal:
            await self._respond_json(
                writer, 409,
                {"error": f"job {job_id} is still {record.state}",
                 "state": record.state},
            )
            return
        document = record.session_document
        if document is None and record.state == DONE \
                and self.cache is not None and record.job.cacheable:
            entry = self.cache.get_entry(record.key)
            if entry is not None:
                document = entry["session"]
        if document is None:
            await self._respond_json(
                writer, 404,
                {"error": f"job {job_id} has no result ({record.state}:"
                          f" {record.failure or 'no session recorded'})",
                 "state": record.state},
            )
            return
        await self._respond_json(writer, 200, {
            "job_id": record.job_id,
            "key": record.key,
            "cache_hit": record.cache_hit,
            "session": document,
        })

    async def _handle_events(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        job_id: str,
    ) -> None:
        """Stream one job's event log as chunked NDJSON.

        The log is replayed from ``seq`` 0, then each event is pushed as
        it is published; the stream ends after the job's terminal event
        (or its hand-off at a workerless drain), which closes the log.
        """
        record = self.store.get(job_id)
        if record is None:
            await self._respond_json(
                writer, 404, {"error": f"no such job: {job_id}"}
            )
            return
        await self._follow(reader, writer, record.events, 0)

    async def _handle_live(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        query: str,
    ) -> None:
        """Stream the daemon-wide event log as chunked NDJSON.

        Every job event published while the connection is open is pushed
        as it happens (per-epoch ``epoch`` digests included for live
        jobs), after a ``hello`` line.  ``?max_events=N`` closes the
        stream after N events (0 sends only the hello) -- handy for
        scripted consumers; the stream also ends when the daemon drains.
        """
        params: Dict[str, str] = {}
        for pair in query.split("&"):
            if "=" in pair:
                name, _, value = pair.partition("=")
                params[name] = value
        raw = params.get("max_events")
        try:
            max_events = int(raw) if raw else None
            if max_events is not None and max_events < 0:
                raise ValueError(raw)
        except ValueError:
            await self._respond_json(
                writer, 400, {"error": f"bad max_events: {raw!r}"}
            )
            return
        log = self.store.daemon_log
        await self._follow(reader, writer, log, len(log), limit=max_events,
                           hello={"event": "hello", "ts": time.time(),
                                  "draining": self._draining})

    async def _follow(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        log: EventLog,
        cursor: int,
        *,
        limit: Optional[int] = None,
        hello: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Stream ``log`` from position ``cursor`` as chunked NDJSON.

        ``hello``, if given, goes first, once this stream is registered
        as a follower.  Then the loop writes whatever is new since its
        cursor and sleeps until the next append.  It ends when the log
        closes, after ``limit`` events, or when the client hangs up.
        Events a slow reader lost to the daemon log's bound are counted
        as ``live_events_skipped``.
        """
        _start_ndjson(writer)
        with _wakeup(reader) as (woken, wake):
            log.wakers.append(wake)
            try:
                if hello is not None:
                    _write_chunk(writer, hello)
                while not reader.at_eof():
                    woken.clear()
                    closed = log.closed
                    start, events = log.read(cursor)
                    if start > cursor:
                        self.metrics.inc("live_events_skipped",
                                         by=start - cursor)
                    if limit is not None:
                        events = events[:limit]
                        limit -= len(events)
                    cursor = start + len(events)
                    for event in events:
                        _write_chunk(writer, event)
                    await writer.drain()
                    if closed or limit == 0:
                        break
                    await woken.wait()
            finally:
                log.wakers.remove(wake)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- metrics ---------------------------------------------------------

    def _metrics_document(self) -> Dict[str, Any]:
        document = self.metrics.snapshot()
        document["queue"] = {
            "depth": self._queue.qsize() if self._queue else 0,
            "capacity": self.queue_depth,
            "in_flight": self._in_flight,
            "workers": self.workers,
            "draining": self._draining,
        }
        document["queue"]["by_tenant"] = (
            self._queue.backlog() if self._queue is not None else {}
        )
        document["jobs_by_state"] = self.store.by_state()
        document["jobs_pruned"] = self.store.pruned
        document["tenants"] = self.tenants.snapshot()
        document["journal"] = (self.journal.stats()
                               if self.journal is not None else None)
        if self.cache is not None:
            document["cache"] = self.cache.stats()
        else:
            document["cache"] = None
        return document


class BackgroundServer:
    """Run a :class:`ServeDaemon` on a dedicated thread (tests, scripts).

    ::

        with BackgroundServer(workers=1, cache=tmp) as server:
            client = ServeClient(port=server.port)
            ...

    Exiting the context performs the same drain-then-exit path as
    SIGTERM; :meth:`stop` with ``force=True`` tears the loop down without
    draining (for admission tests that intentionally wedge the queue).
    """

    def __init__(self, **daemon_kwargs: Any) -> None:
        daemon_kwargs.setdefault("port", 0)
        self.daemon = ServeDaemon(**daemon_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._serving: Optional[asyncio.Task] = None
        #: Set on the loop thread once serving ended and the loop tears
        #: itself down; a force stop arriving later has nothing to cancel.
        self._closing = False

    @property
    def port(self) -> int:
        return self.daemon.port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="pathfinder-serve")
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("serve daemon failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.daemon.start())
            self._serving = loop.create_task(self.daemon.serve_forever())
            self._started.set()
            try:
                loop.run_until_complete(self._serving)
            except asyncio.CancelledError:
                pass  # force stop cancels serve_forever itself
        finally:
            self._closing = True
            try:
                # Every connection accepted so far is registered once the
                # listener is closed; a drain closed it already.
                loop.run_until_complete(self.daemon._stop_listening())
                self.daemon._close_connections()
                pending = [t for t in asyncio.all_tasks(loop)
                           if not t.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                # These turns also run the closed transports' teardown,
                # which closes their sockets.
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()
                # A drain closed it already; a force stop did not.  Each
                # record was flushed as it was appended, so closing adds
                # nothing a crash would have lost.
                if self.daemon.journal is not None:
                    self.daemon.journal.close()
                self._stopped.set()

    def stop(self, force: bool = False, timeout: float = 60.0) -> None:
        if self._loop is None or self._loop.is_closed() \
                or self._stopped.is_set():
            return
        if force:
            def _cancel() -> None:
                if self._closing:
                    # Cancelling now would cancel the teardown itself.
                    return
                self.daemon._draining = True
                for task in self.daemon._worker_tasks:
                    task.cancel()
                # The loop's teardown closes the listener and every
                # connection, then cancels every other task.
                self._serving.cancel()
            self._loop.call_soon_threadsafe(_cancel)
        else:
            self._loop.call_soon_threadsafe(self.daemon.request_shutdown)
        self._stopped.wait(timeout=timeout)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop(force=exc_info[0] is not None)
