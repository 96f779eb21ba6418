"""Warm worker pool: the one way a profiling job leaves the process.

A fresh ``Process.start()`` per job is robust - a crashed or hung job
can never poison the parent - but for short jobs the spawn dominates: a
fresh interpreter (spawn) or a fork of a large parent re-pays import
and setup cost on every single job.  :class:`WorkerPool` keeps a fixed
set of worker processes alive across jobs and feeds them over a pipe,
preserving the per-job isolation properties that matter:

* **forkserver start method** - workers are forked from a clean,
  single-threaded server process, never from the (multi-threaded,
  asyncio-running) daemon itself, so the pool is safe to own from
  threaded parents; falls back to the platform default where
  forkserver is unavailable.
* **length-prefixed frames** - every message on the pipe is
  ``<u64 little-endian length><pickle payload>``.  A worker killed
  mid-write leaves a truncated frame; the explicit length turns that
  into a detected :class:`PoolProtocolError` (-> the job is reported
  ``crashed``) instead of an arbitrary unpickling error.
* **recycling** - after ``max_jobs_per_worker`` jobs a worker is
  retired and a fresh one spawned lazily, bounding any slow leak a
  long-lived simulation process might accumulate.
* **timeout-kill-respawn** - a job exceeding its wall-clock budget gets
  its worker killed (the only way to stop a stuck simulation); the
  pool replaces the worker on the next lease.
* **typed spawn failure** - a worker that cannot be started (process
  or fd limits) ends the job as a ``spawn_failed`` outcome, retryable
  like any other failure; nothing falls back to another execution path.

:meth:`WorkerPool.run_job` is the pool's only driving call: blocking
and thread-safe, it leases one worker for the whole conversation.  The
campaign runner calls it from ``workers`` threads and the serve daemon
from its worker threads.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional

logger = logging.getLogger(__name__)

_LENGTH = struct.Struct("<Q")

#: Default recycling horizon: one worker serves this many jobs.
DEFAULT_MAX_JOBS_PER_WORKER = 32


class PoolProtocolError(Exception):
    """A frame on the worker pipe was truncated or malformed."""


def _encode_frame(message: Any) -> bytes:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(payload)) + payload


def _send_frame(conn, message: Any) -> None:
    conn.send_bytes(_encode_frame(message))


def _recv_frame(conn) -> Any:
    blob = conn.recv_bytes()
    if len(blob) < _LENGTH.size:
        raise PoolProtocolError(f"short frame: {len(blob)} bytes")
    (length,) = _LENGTH.unpack_from(blob)
    payload = blob[_LENGTH.size:]
    if len(payload) != length:
        raise PoolProtocolError(
            f"truncated frame: header says {length}, got {len(payload)}"
        )
    return pickle.loads(payload)


def _pool_worker_main(conn, max_jobs: Optional[int]) -> None:
    """Entry point of one persistent worker: serve jobs until retired."""
    from . import runner

    served = 0
    while True:
        try:
            message = _recv_frame(conn)
        except (EOFError, OSError, PoolProtocolError):
            break
        if not isinstance(message, dict) or message.get("op") != "job":
            break  # "exit" or anything unexpected: retire quietly
        progress = None
        if message.get("live"):

            def progress(digest, _conn=conn):
                try:
                    _send_frame(_conn, {"live": digest})
                except (OSError, ValueError):
                    pass  # parent went away; keep simulating for the cache

        outcome = runner._job_outcome(
            message["spec"],
            message["config"],
            message.get("max_events"),
            message.get("setup"),
            live=message.get("live"),
            progress=progress,
            fidelity=message.get("fidelity"),
        )
        # The session document is the only transport: the parent decodes
        # it, so the in-memory result is never pickled.
        outcome.pop("result", None)
        try:
            _send_frame(conn, outcome)
        except (OSError, ValueError):
            break
        served += 1
        if max_jobs is not None and served >= max_jobs:
            break
    conn.close()


class _Worker:
    """Parent-side handle for one pool worker process."""

    __slots__ = ("proc", "conn", "jobs_done", "busy")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.jobs_done = 0
        self.busy = False  # leased to a run_job call


def _pool_context(start_method: Optional[str]):
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # platform without forkserver
        return multiprocessing.get_context()


class WorkerPool:
    """A fixed-size pool of warm, recyclable profiling workers."""

    def __init__(
        self,
        workers: int = 2,
        *,
        max_jobs_per_worker: Optional[int] = DEFAULT_MAX_JOBS_PER_WORKER,
        start_method: Optional[str] = None,
        metrics_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_jobs_per_worker is not None and max_jobs_per_worker < 1:
            raise ValueError("max_jobs_per_worker must be >= 1 or None")
        self.workers = workers
        self.max_jobs_per_worker = max_jobs_per_worker
        self._ctx = _pool_context(start_method)
        self._lock = threading.RLock()
        self._idle_cv = threading.Condition(self._lock)
        self._pool: List[_Worker] = []
        self._closed = False
        #: Worker processes that failed to start (process/fd limits);
        #: surfaced in campaign summaries and the daemon's /metricsz.
        self.spawn_failures = 0
        #: Workers retired after serving max_jobs_per_worker jobs.
        self.recycled = 0
        #: Worker processes started over the pool's lifetime.
        self.spawned = 0
        self._metrics_hook = metrics_hook

    # -- lifecycle -------------------------------------------------------

    def _note(self, event: str) -> None:
        if self._metrics_hook is not None:
            try:
                self._metrics_hook(event)
            except Exception:  # noqa: BLE001 - metrics must never break jobs
                logger.exception("pool metrics hook failed")

    def _spawn_locked(self) -> _Worker:
        """Start one worker; an ``OSError`` is counted, then re-raised."""
        conns = ()
        try:
            conns = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_pool_worker_main,
                args=(conns[1], self.max_jobs_per_worker),
                daemon=True,
            )
            proc.start()
        except OSError:
            for conn in conns:
                conn.close()
            self.spawn_failures += 1
            self._note("spawn_failure")
            raise
        parent_conn, child_conn = conns
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._pool.append(worker)
        self.spawned += 1
        self._note("spawned")
        return worker

    def _acquire_locked(self) -> Optional[_Worker]:
        """An idle live worker, spawning up to ``workers``; None if full."""
        for worker in self._pool:
            if not worker.busy and not worker.proc.is_alive():
                self._retire_locked(worker, kill=True)
        for worker in self._pool:
            if not worker.busy:
                return worker
        if len(self._pool) < self.workers:
            return self._spawn_locked()
        return None

    def _retire_locked(self, worker: _Worker, kill: bool) -> None:
        if worker in self._pool:
            self._pool.remove(worker)
        if kill:
            if worker.proc.is_alive():
                worker.proc.kill()
        else:
            try:
                _send_frame(worker.conn, {"op": "exit"})
            except (OSError, ValueError):
                pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=2.0)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=2.0)

    def _release(self, worker: _Worker) -> None:
        """End a lease after a completed job; recycle the worker when due."""
        with self._idle_cv:
            worker.busy = False
            worker.jobs_done += 1
            if (self.max_jobs_per_worker is not None
                    and worker.jobs_done >= self.max_jobs_per_worker):
                self._retire_locked(worker, kill=False)
                self.recycled += 1
                self._note("recycled")
            self._idle_cv.notify_all()

    def _end_lease(self, worker: _Worker, kind: str,
                   error: str = "") -> Dict[str, Any]:
        """Kill a leased worker that crashed or timed out; the job's outcome."""
        with self._idle_cv:
            self._retire_locked(worker, kill=True)
            self._idle_cv.notify_all()
        if kind == "crashed":
            error = (f"pool worker exited with code {worker.proc.exitcode} "
                     "before reporting a result")
        return {"ok": False, "kind": kind, "error": error}

    def close(self) -> None:
        """Retire every worker; the pool is unusable afterwards."""
        with self._lock:
            self._closed = True
            for worker in list(self._pool):
                self._retire_locked(worker, kill=worker.busy)
            self._idle_cv.notify_all()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the job call ----------------------------------------------------

    def run_job(
        self,
        spec,
        config,
        *,
        max_events: Optional[int] = None,
        setup: Optional[Callable] = None,
        timeout: Optional[float] = None,
        live: Any = None,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        fidelity: Any = None,
    ) -> Dict[str, Any]:
        """Execute one job on a leased pool worker; blocks until done.

        Returns the job's outcome dict, always with ``wall_time``:
        ``{"ok": True, "document": ...}`` on success, otherwise
        ``{"ok": False, "kind": ..., "error": ...}`` where ``kind`` is

        * ``timeout`` - past ``timeout`` seconds; the worker was killed
          and is replaced on a later lease;
        * ``budget_exceeded`` - the simulation hit ``max_events``;
        * ``error`` - the job raised, or cannot be pickled to a worker;
        * ``crashed`` - the worker died without reporting;
        * ``spawn_failed`` - no worker process could be started.

        With ``live``, the worker streams per-epoch digests and each one
        is handed to ``on_progress`` as it arrives.  Thread-safe:
        callers beyond the pool size queue for an idle worker.
        """
        began = time.monotonic()
        deadline = (began + timeout) if timeout else None
        try:
            frame = _encode_frame({
                "op": "job",
                "spec": spec,
                "config": config,
                "max_events": max_events,
                "setup": setup,
                "fidelity": fidelity,
                "live": live,
            })
        except Exception as exc:  # noqa: BLE001 - e.g. a lambda setup hook
            outcome = {
                "ok": False,
                "kind": "error",
                "error": "job cannot be sent to a pool worker: "
                         f"{type(exc).__name__}: {exc}",
            }
        else:
            outcome = self._lease_and_run(frame, deadline, timeout,
                                          on_progress)
        outcome["wall_time"] = time.monotonic() - began
        return outcome

    def _lease_and_run(self, frame, deadline, timeout, on_progress):
        with self._idle_cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                try:
                    worker = self._acquire_locked()
                except OSError as exc:
                    return {
                        "ok": False,
                        "kind": "spawn_failed",
                        "error": f"could not start a pool worker: {exc} "
                                 "(parallel=False runs jobs in-process, "
                                 "without a worker)",
                    }
                if worker is not None:
                    worker.busy = True
                    break
                self._idle_cv.wait(0.1)
        return self._converse(worker, frame, deadline, timeout, on_progress)

    def _converse(self, worker, frame, deadline, timeout, on_progress):
        """The leased conversation: send the job, await its outcome."""
        try:
            worker.conn.send_bytes(frame)
        except (OSError, ValueError):
            return self._end_lease(worker, "crashed")
        while True:
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                return self._end_lease(
                    worker, "timeout",
                    f"job exceeded its {timeout:.1f}s wall-clock budget",
                )
            try:
                if not worker.conn.poll(0.1 if remaining is None
                                        else min(0.1, remaining)):
                    if worker.proc.is_alive():
                        continue
                    if not worker.conn.poll(0):
                        return self._end_lease(worker, "crashed")
                received = _recv_frame(worker.conn)
            except (EOFError, OSError, ValueError, PoolProtocolError,
                    pickle.UnpicklingError):
                return self._end_lease(worker, "crashed")
            if isinstance(received, dict) and "ok" not in received:
                if on_progress is not None and "live" in received:
                    try:
                        on_progress(received["live"])
                    except Exception:  # noqa: BLE001 - keep the lease whole
                        logger.exception("live progress callback failed")
                continue
            self._release(worker)
            return received
