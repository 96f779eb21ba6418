"""Blocking HTTP client for the ``repro.serve`` daemon.

Stdlib-only (``http.client``); covers the whole API surface::

    client = ServeClient(port=8023)
    job = client.submit_run(spec)                    # 202/200 -> job dict
    job = client.wait(job["job_id"], timeout=120)    # block to terminal
    for event in client.events(job["job_id"]):       # or stream NDJSON
        print(event["event"])

Methods raise :class:`ServeError` on any non-2xx answer; a 429 carries
``retry_after`` so callers can implement polite backoff
(:meth:`ServeClient.submit_run` can do it for them via
``retry_on_busy=True``).

Requests reuse keep-alive connections from a small pool; threads may
share one client.  :meth:`ServeClient.close` (or leaving a ``with``
block) closes the pooled connections.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import threading
import time
import weakref
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.persistence import config_to_document, spec_to_document
from ..core.spec import ProfileSpec
from ..sim.topology import MachineConfig

DEFAULT_TIMEOUT_S = 30.0
#: Idle keep-alive connections one client keeps for reuse.
MAX_IDLE_CONNECTIONS = 4


def parse_retry_after(value: Optional[str]) -> Optional[int]:
    """Seconds to back off from a ``Retry-After`` header, or None.

    RFC 9110 allows both delta-seconds (``"7"``) and an HTTP-date
    (``"Wed, 21 Oct 2026 07:28:00 GMT"``); anything unparseable - or a
    date already in the past - degrades to None rather than raising, so
    a proxy's exotic header can never break the client.
    """
    if not value:
        return None
    value = value.strip()
    try:
        return max(0, int(value))
    except ValueError:
        pass
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    delta = (when - datetime.now(timezone.utc)).total_seconds()
    if delta <= 0:
        return None
    return int(math.ceil(delta))


class ServeError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[int] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


def _close_all(connections: List[http.client.HTTPConnection]) -> None:
    while connections:
        try:
            conn = connections.pop()
        except IndexError:
            return  # another thread emptied it first
        conn.close()


class ServeClient:
    """One daemon endpoint, over a pool of keep-alive connections.

    A connection carries one request at a time, so threads may share a
    client: each request takes an idle connection from the pool (or
    dials a new one) and hands it back once its answer is read.  A
    request on a pooled connection that fails before any byte of the
    answer arrives, because the daemon closed the connection while it
    sat idle, is sent once more on a new connection.  That retry cannot
    admit a job twice: ``POST /v1/run`` dedupes by job key.  The pooled
    connections close on :meth:`close`, at the end of a ``with`` block
    or when the client is garbage collected.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8023, *,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 tenant: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Tenant identity sent with every request (the
        #: ``X-Pathfinder-Tenant`` header); None means the daemon's
        #: default tenant.
        self.tenant = tenant
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the idle connections; a later request dials anew."""
        with self._lock:
            idle = self._idle[:]
            del self._idle[:]
        _close_all(idle)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------

    def _headers(self, payload: bool = False) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if payload:
            headers["Content-Type"] = "application/json"
        if self.tenant:
            headers["X-Pathfinder-Tenant"] = self.tenant
        return headers

    def _send(
        self, method: str, path: str, body: Optional[Dict[str, Any]],
        timeout: float,
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; returns its connection and answer head."""
        payload = json.dumps(body) if body is not None else None
        headers = self._headers(payload is not None)
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        while True:
            if conn is None:
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=timeout)
            else:
                conn.timeout = timeout
                conn.sock.settimeout(timeout)
            try:
                conn.request(method, path, body=payload, headers=headers)
                return conn, conn.getresponse()
            except ConnectionError:
                conn.close()
                if not reused:
                    raise
                # The daemon closed it while it sat idle; its pool
                # siblings idled as long, so drop them and dial once.
                self.close()
                conn, reused = None, False
            except BaseException:
                conn.close()
                raise

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
        *, timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], Any]:
        conn, response = self._send(method, path, body,
                                    timeout or self.timeout)
        try:
            headers = {k.lower(): v for k, v in response.getheaders()}
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            keep = not response.will_close \
                and len(self._idle) < MAX_IDLE_CONNECTIONS
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        document = json.loads(raw) if raw else None
        return response.status, headers, document

    def _stream(self, path: str,
                timeout: float) -> Iterator[Dict[str, Any]]:
        """One NDJSON stream, on a connection of its own.

        The stream's end closes its connection, so it leaves the pooled
        ones to the requests around it (the result fetch after a wait),
        and a job's stream is dialled while the job runs.
        ``http.client`` undoes the chunked transfer encoding, so each
        ``readline`` yields exactly one JSON event line.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            conn.request("GET", path, headers=self._headers())
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                try:
                    message = json.loads(raw).get("error", "")
                except Exception:  # noqa: BLE001
                    message = raw.decode(errors="replace")
                raise ServeError(
                    response.status, message,
                    parse_retry_after(response.getheader("retry-after")),
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def _call(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Any:
        status, headers, document = self._request(method, path, body)
        if status >= 400:
            message = (document or {}).get("error", "") \
                if isinstance(document, dict) else str(document)
            raise ServeError(status, message,
                             parse_retry_after(headers.get("retry-after")))
        return document

    @staticmethod
    def _submission(
        spec: ProfileSpec,
        config: Optional[MachineConfig],
        *,
        tag: str = "",
        priority: int = 10,
        timeout: Optional[float] = None,
        max_events: Optional[int] = None,
        cacheable: bool = True,
        live: Any = False,
        fidelity: Any = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "spec": spec_to_document(spec),
            "tag": tag,
            "priority": priority,
            "cacheable": cacheable,
        }
        if config is not None:
            body["config"] = config_to_document(config)
        if timeout is not None:
            body["timeout"] = timeout
        if max_events is not None:
            body["max_events"] = max_events
        if live:
            if dataclasses.is_dataclass(live):
                body["live"] = dataclasses.asdict(live)
            else:
                body["live"] = live
        if fidelity is not None and fidelity != "exact":
            from ..sim.warp import fidelity_token

            body["fidelity"] = fidelity_token(fidelity)
        return body

    # -- submission ------------------------------------------------------

    def submit_run(
        self,
        spec: ProfileSpec,
        config: Optional[MachineConfig] = None,
        *,
        tag: str = "",
        priority: int = 10,
        timeout: Optional[float] = None,
        max_events: Optional[int] = None,
        cacheable: bool = True,
        live: Any = False,
        fidelity: Any = None,
        retry_on_busy: bool = False,
        max_wait: float = 300.0,
    ) -> Dict[str, Any]:
        """Submit one job; returns its status dict (may be born done).

        ``live=True`` (or a :class:`~repro.live.LiveSpec`) asks the
        daemon to stream per-epoch digests into the job's event log and
        the daemon-wide ``/v1/live`` firehose (see :meth:`live`).
        ``fidelity="adaptive"`` (or a :class:`~repro.sim.warp.WarpSpec`)
        enables steady-state fast-forwarding; the fidelity is part of
        the job's cache key.
        """
        body = self._submission(spec, config, tag=tag, priority=priority,
                                timeout=timeout, max_events=max_events,
                                cacheable=cacheable, live=live,
                                fidelity=fidelity)
        deadline = time.monotonic() + max_wait
        while True:
            try:
                return self._call("POST", "/v1/run", body)["job"]
            except ServeError as exc:
                if not (retry_on_busy and exc.status == 429):
                    raise
                delay = exc.retry_after or 1
                if time.monotonic() + delay > deadline:
                    raise
                time.sleep(delay)

    def submit_campaign(
        self, submissions: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Submit a batch; each item is a dict as built by ``submission``.

        Admission is all-or-nothing: either every job is accepted or the
        call raises a 429 :class:`ServeError`.
        """
        return self._call("POST", "/v1/campaign", {"jobs": submissions})

    def submission(self, spec: ProfileSpec,
                   config: Optional[MachineConfig] = None,
                   **options: Any) -> Dict[str, Any]:
        """Build one campaign item (see :meth:`submit_campaign`)."""
        return self._submission(spec, config, **options)

    # -- status ----------------------------------------------------------

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._call("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._call("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, *,
             timeout: float = 600.0) -> Dict[str, Any]:
        """Block until the job is terminal; returns its final status.

        Follows the job's event stream, so the answer comes as soon as
        the daemon publishes ``done`` or ``failed``.  A stream that ends
        without a terminal event (a drain, a dropped connection) is
        followed again after a fresh status check, until ``timeout``
        seconds have passed (then :class:`TimeoutError`).
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] in ("done", "failed"):
                return status
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} "
                    f"after {timeout:.0f}s"
                )
            try:
                for event in self.events(job_id, timeout=remaining):
                    if event.get("event") in ("done", "failed") \
                            or time.monotonic() >= deadline:
                        break
            except (OSError, http.client.HTTPException):
                pass  # the next status check decides what it meant

    def events(self, job_id: str, *,
               timeout: float = 600.0) -> Iterator[Dict[str, Any]]:
        """Stream the job's NDJSON events until it reaches a terminal state.

        A 429 answer (the daemon shedding load) is not fatal: the client
        honours the ``Retry-After`` hint, reconnects, and - because the
        event log replays from the start - deduplicates by ``seq`` so
        callers see every event exactly once.
        """
        deadline = time.monotonic() + timeout
        next_seq = 0
        while True:
            try:
                for event in self._events_once(job_id, deadline):
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        if seq < next_seq:
                            continue  # replayed after a reconnect
                        next_seq = seq + 1
                    yield event
                return
            except ServeError as exc:
                if exc.status != 429:
                    raise
                delay = exc.retry_after or 1
                if time.monotonic() + delay >= deadline:
                    raise
                time.sleep(delay)

    def _events_once(self, job_id: str,
                     deadline: float) -> Iterator[Dict[str, Any]]:
        """One connection's worth of the NDJSON event stream."""
        remaining = max(0.1, deadline - time.monotonic())
        return self._stream(f"/v1/jobs/{job_id}/events", remaining)

    def live(self, *, max_events: Optional[int] = None,
             timeout: float = 600.0) -> Iterator[Dict[str, Any]]:
        """Stream the daemon-wide live NDJSON firehose.

        Yields every job event the daemon publishes while the connection
        is open - per-epoch ``epoch`` digests of live jobs included.
        The stream ends after ``max_events`` events (when given) or when
        the daemon drains; the leading ``hello`` event is yielded too
        but does not count toward ``max_events``.
        """
        path = "/v1/live"
        if max_events is not None:
            path += f"?max_events={int(max_events)}"
        return self._stream(path, timeout)

    def result(self, job_id: str) -> Dict[str, Any]:
        """Fetch a done job's full session digest (member protocol).

        Returns ``{"job_id", "key", "cache_hit", "session"}``; raises
        :class:`ServeError` 409 while the job is still in flight and
        404 for unknown or failed jobs.
        """
        return self._call("GET", f"/v1/jobs/{job_id}/result")

    # -- ops -------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._call("GET", "/healthz")

    def ready(self) -> bool:
        status, _, _ = self._request("GET", "/readyz")
        return status == 200

    def metrics(self) -> Dict[str, Any]:
        return self._call("GET", "/metricsz")

    def tenants(self) -> Dict[str, Any]:
        """Per-tenant policies, usage gauges and counters."""
        return self._call("GET", "/v1/tenants")["tenants"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit."""
        return self._call("POST", "/v1/shutdown")
