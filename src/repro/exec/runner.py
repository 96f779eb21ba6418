"""Campaign runner: execute batches of profiling jobs, cached and retried.

The paper's evaluation is dozens of independent ``PathFinder`` sessions
(figure sweeps, app x node grids, load sweeps).  A :class:`CampaignJob`
describes one such session declaratively - spec + machine config (+ an
optional picklable ``setup`` hook for stateful extras like tiering
engines or pre-installed regions) - and :func:`run_campaign` executes a
batch of them with:

* **content-addressed caching** - each job's canonical hash keys a
  ``results/cache/`` store, so reruns and overlapping sweeps are
  near-free (see :mod:`repro.exec.hashing` / :mod:`repro.exec.cache`);
* **one scheduling loop, two ways to start a job** - inline on the
  calling thread (``parallel=False``, or nothing to overlap and no
  wall-clock limit), or on the warm :class:`~repro.exec.pool.WorkerPool`
  via ``workers`` threads each blocking in ``run_job``; a pool job's
  result travels back as its JSON session digest, so a worker crash can
  never poison the parent, while an inline job keeps the result it
  computed;
* **robustness** - per-job wall-clock timeout (enforced by killing the
  worker, so a timed job always runs on the pool and ``parallel=False``
  with a timeout is a ``ValueError``), bounded retry with exponential
  backoff, and typed failures:
  a failed job - including one whose worker could not be started -
  yields a structured :class:`JobRecord` instead of crashing the sweep;
* **observability** - per-job timing / event-count / cache-hit metrics
  and a campaign summary, rendered by
  :func:`repro.core.report.render_campaign`.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.persistence import result_from_document, result_to_document
from ..core.profiler import PathFinder, ProfileResult
from ..core.spec import ProfileSpec
from ..sim.engine import SimulationBudgetExceeded
from ..sim.machine import Machine
from ..sim.topology import MachineConfig, spr_config
from ..sim.warp import fidelity_token
from .cache import ResultCache, coerce_cache
from .hashing import job_key
from .pool import WorkerPool

logger = logging.getLogger(__name__)


@dataclass
class CampaignJob:
    """One declarative profiling job within a campaign."""

    spec: ProfileSpec
    config: MachineConfig = field(default_factory=spr_config)
    tag: str = ""
    #: Per-job wall-clock limit (seconds); falls back to the campaign's.
    timeout: Optional[float] = None
    #: Simulation event budget; exceeding it is a retryable failure.
    max_events: Optional[int] = None
    #: Optional picklable hook ``setup(machine, spec)`` run before the
    #: profiler starts - attach tiering engines, pre-install regions, ...
    setup: Optional[Callable[[Machine, ProfileSpec], None]] = None
    #: Extra data folded into the cache key (parameters the setup hook
    #: applies that the spec itself does not capture).
    key_extra: Any = None
    #: Set False to always recompute this job (e.g. non-deterministic
    #: setup hooks).
    cacheable: bool = True
    #: Streaming profiling: ``True`` or a :class:`repro.live.LiveSpec`.
    #: Deliberately NOT part of the cache key - live mode changes what is
    #: streamed while the job runs, not the profiling result document.
    live: Any = None
    #: ``"exact"`` | ``"adaptive"`` | :class:`repro.sim.warp.WarpSpec`.
    #: Non-exact fidelity IS part of the cache key: warped counters are
    #: extrapolations and must never shadow exact results (the default
    #: leaves existing keys untouched).
    fidelity: Any = "exact"

    def key(self) -> str:
        # The setup hook is part of the job's content: a partial's bound
        # arguments (e.g. tiering on/off) must key distinct entries.
        extra = self.key_extra if self.setup is None else [self.setup,
                                                           self.key_extra]
        token = fidelity_token(self.fidelity)
        if token is not None:
            extra = ["fidelity", token, extra]
        return job_key(
            self.spec, self.config, max_events=self.max_events, extra=extra
        )


@dataclass
class JobRecord:
    """Structured per-job outcome: status, metrics, and error context."""

    index: int
    tag: str
    key: str
    status: str = "pending"          # ok | cache_hit | failed
    #: timeout | budget_exceeded | error | crashed | spawn_failed
    failure: Optional[str] = None
    error: Optional[str] = None
    attempts: int = 0
    wall_time: float = 0.0
    events_executed: int = 0
    total_cycles: float = 0.0
    num_epochs: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cache_hit")

    @property
    def cache_hit(self) -> bool:
        return self.status == "cache_hit"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "tag": self.tag,
            "key": self.key,
            "status": self.status,
            "failure": self.failure,
            "error": self.error,
            "attempts": self.attempts,
            "wall_time": self.wall_time,
            "events_executed": self.events_executed,
            "total_cycles": self.total_cycles,
            "num_epochs": self.num_epochs,
        }


@dataclass
class CampaignResult:
    """Everything a campaign produced, in input order."""

    jobs: List[JobRecord]
    results: List[Optional[ProfileResult]]
    wall_time: float = 0.0
    workers: int = 1
    #: Pool workers that failed to start (process/fd limits); each one
    #: failed its job's attempt as ``spawn_failed``.
    spawn_failures: int = 0
    #: Pool workers retired after serving their per-worker job quota.
    workers_recycled: int = 0

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(zip(self.jobs, self.results))

    @property
    def ok(self) -> List[JobRecord]:
        return [j for j in self.jobs if j.ok]

    @property
    def failed(self) -> List[JobRecord]:
        return [j for j in self.jobs if not j.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for j in self.jobs if j.cache_hit)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / len(self.jobs) if self.jobs else 0.0

    def result_for(self, tag: str) -> ProfileResult:
        for job, result in zip(self.jobs, self.results):
            if job.tag == tag:
                if result is None:
                    raise KeyError(f"job {tag!r} failed: {job.failure}")
                return result
        raise KeyError(f"no job tagged {tag!r}")

    def summary(self) -> Dict[str, Any]:
        return {
            "jobs": len(self.jobs),
            "ok": len(self.ok),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "workers": self.workers,
            "wall_time": self.wall_time,
            "total_events": sum(j.events_executed for j in self.jobs),
            "total_sim_cycles": sum(j.total_cycles for j in self.jobs),
            "spawn_failures": self.spawn_failures,
            "workers_recycled": self.workers_recycled,
        }


# -- job execution (runs in a pool worker, or inline) ------------------------


def _execute_job(
    spec: ProfileSpec,
    config: MachineConfig,
    max_events: Optional[int],
    setup: Optional[Callable[[Machine, ProfileSpec], None]],
    live: Any = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    fidelity: Any = None,
) -> Dict[str, Any]:
    """Run one profiling session; returns its outcome dict.

    The outcome carries the session both as ``document`` (what the
    cache stores and a pool worker sends back) and as the in-memory
    ``result``, which an inline campaign keeps and a pool worker drops
    before it replies.  With ``live`` set, the profiler streams
    per-epoch digests to ``progress`` while the simulation runs (the
    serve daemon's ``/v1/live`` feed); the outcome dict is unchanged
    either way.
    """
    machine = Machine(config)
    for app in spec.apps:
        reseed = getattr(app.workload, "reseed", None)
        if reseed is not None:
            reseed()
    if setup is not None:
        setup(machine, spec)
    profiler = PathFinder(machine, spec, live=live, on_epoch=progress,
                          fidelity=fidelity)
    if max_events is not None:
        # Bound the whole session, not each epoch: the engine's persistent
        # budget composes across the profiler's per-epoch run() calls and
        # surfaces as a typed, retryable job failure when exhausted.
        machine.engine.set_event_budget(max_events)
    try:
        result = profiler.run()
        return {
            "ok": True,
            "document": result_to_document(result),
            "result": result,
            "events_executed": machine.engine.events_executed,
            "total_cycles": result.total_cycles,
            "num_epochs": result.num_epochs,
        }
    finally:
        # The job owns its machine: once the document is encoded,
        # refcounting frees it, not a full collection that first
        # traverses it.
        machine.dismantle()


def _job_outcome(
    spec: ProfileSpec,
    config: MachineConfig,
    max_events: Optional[int],
    setup: Optional[Callable[[Machine, ProfileSpec], None]],
    live: Any = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    fidelity: Any = None,
) -> Dict[str, Any]:
    """:func:`_execute_job`, with a raised failure turned into an outcome.

    The one place a job's exception becomes a typed outcome dict: pool
    workers run every job through it, and so does the inline campaign
    path.  ``_execute_job`` is looked up on this module at call time.
    """
    try:
        return _execute_job(spec, config, max_events, setup, live=live,
                            progress=progress, fidelity=fidelity)
    except SimulationBudgetExceeded as exc:
        return {
            "ok": False,
            "kind": "budget_exceeded",
            "error": str(exc),
            "events_executed": exc.events_executed,
            "total_cycles": exc.now,
        }
    except Exception:  # noqa: BLE001 - the job's failure, not the caller's
        return {
            "ok": False,
            "kind": "error",
            "error": traceback.format_exc(limit=20),
        }


def _run_inline(job: CampaignJob) -> Dict[str, Any]:
    """One attempt on the calling thread (no wall-clock limit applies)."""
    began = time.monotonic()
    outcome = _job_outcome(job.spec, job.config, job.max_events, job.setup,
                           fidelity=job.fidelity)
    outcome["wall_time"] = time.monotonic() - began
    return outcome


# -- the campaign scheduler -------------------------------------------------


def run_campaign(
    jobs: Sequence[CampaignJob],
    *,
    workers: Optional[int] = None,
    parallel: bool = True,
    cache: Union[None, bool, str, ResultCache] = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.25,
    pool: Optional[WorkerPool] = None,
) -> CampaignResult:
    """Execute ``jobs``, returning per-job results and records.

    ``workers`` defaults to ``min(4, cpu_count)``.  ``retries`` is the
    number of *additional* attempts granted to a job that times out,
    exceeds its event budget, raises, crashes its worker or finds no
    worker to start; attempts are spaced by ``backoff * 2**(attempt-1)``
    seconds.  A job that exhausts its attempts contributes a failed
    :class:`JobRecord` (with the last failure kind and message) while
    every other job still completes.

    Cache misses run inline on the calling thread when ``parallel`` is
    False, or when there is nothing to overlap (one job, or one worker)
    and no wall-clock limit to enforce.  Otherwise ``workers`` threads
    feed them to a warm :class:`~repro.exec.pool.WorkerPool` (workers
    persist across jobs); pass ``pool`` to reuse one across campaigns -
    the caller then owns its lifetime.  A pool that cannot start a
    worker fails the attempt as ``spawn_failed``; the job never falls
    back to running inline.

    A ``timeout``, campaign-wide or on any job, needs a worker process
    to kill, so it sends even a single job to the pool; with
    ``parallel=False`` it raises ``ValueError`` rather than run
    unenforced.
    """
    jobs = list(jobs)
    # Timeout enforcement needs a worker process to kill.
    wants_timeout = timeout is not None or any(
        job.timeout is not None for job in jobs
    )
    if wants_timeout and not parallel:
        raise ValueError(
            "a timeout needs a pool worker to kill; parallel=False runs "
            "jobs in-process and cannot enforce it"
        )
    cache_obj = coerce_cache(cache)
    started = time.monotonic()
    if workers is None:
        workers = min(4, multiprocessing.cpu_count() or 1)
    workers = max(1, workers)

    records = [
        JobRecord(index=i, tag=job.tag or f"job{i}", key=job.key())
        for i, job in enumerate(jobs)
    ]
    results: List[Optional[ProfileResult]] = [None] * len(jobs)

    # Cache probe first: hits never enter the pool.
    pending: deque = deque()
    resolved_keys: Dict[str, int] = {}
    for i, (job, record) in enumerate(zip(jobs, records)):
        entry = (
            cache_obj.get_entry(record.key)
            if cache_obj is not None and job.cacheable
            else None
        )
        cached = None
        if entry is not None:
            try:
                cached = result_from_document(entry["session"])
            except Exception as exc:  # noqa: BLE001 - recompute it instead
                cache_obj.discard(record.key, exc)
        if cached is not None:
            results[i] = cached
            record.status = "cache_hit"
            meta = entry.get("meta", {})
            record.events_executed = int(meta.get("events_executed", 0))
            record.total_cycles = float(meta.get("total_cycles",
                                                 cached.total_cycles))
            record.num_epochs = cached.num_epochs
            logger.debug("campaign job %s: cache hit (%s)", record.tag,
                         record.key[:12])
        elif record.key in resolved_keys and job.cacheable:
            # Duplicate spec within one campaign: compute once, share.
            pending.append(("dup", i, resolved_keys[record.key]))
        else:
            resolved_keys[record.key] = i
            pending.append(("run", i, 0))

    def settle(i: int, outcome: Dict[str, Any]) -> bool:
        """Record one attempt's outcome; True if the job should retry."""
        job, record = jobs[i], records[i]
        record.wall_time += float(outcome.get("wall_time", 0.0))
        record.events_executed = int(outcome.get("events_executed", 0))
        record.total_cycles = float(outcome.get("total_cycles", 0.0))
        if not outcome.get("ok"):
            record.failure = outcome.get("kind", "error")
            record.error = outcome.get("error")
            retryable = record.attempts <= retries
            logger.warning(
                "campaign job %s attempt %d failed (%s)%s",
                record.tag, record.attempts, record.failure,
                ": retrying" if retryable else ": giving up",
            )
            if not retryable:
                record.status = "failed"
            return retryable
        # An inline job hands over the result it computed; a pool job's
        # crossed the pipe as its document.
        result = outcome.get("result")
        results[i] = (result if result is not None
                      else result_from_document(outcome["document"]))
        record.status = "ok"
        record.failure = record.error = None
        record.num_epochs = int(outcome.get("num_epochs", 0))
        if cache_obj is not None and job.cacheable:
            try:
                cache_obj.put_document(
                    record.key,
                    outcome["document"],
                    meta={
                        "tag": record.tag,
                        "wall_time": record.wall_time,
                        "events_executed": record.events_executed,
                        "total_cycles": record.total_cycles,
                    },
                )
            except OSError as exc:
                logger.warning("could not persist %s: %s", record.key, exc)
        return False

    use_pool = parallel and len(pending) > 0 and (
        (workers > 1 and len(pending) > 1) or wants_timeout
    )
    spawn_failures = recycled = 0
    if not use_pool:
        _drain(jobs, records, results, pending, _run_inline, settle, backoff,
               lanes=1)
    else:
        own_pool = pool is None
        if own_pool:
            pool = WorkerPool(workers=workers)

        def on_pool(job: CampaignJob) -> Dict[str, Any]:
            return pool.run_job(
                job.spec, job.config, max_events=job.max_events,
                setup=job.setup, fidelity=job.fidelity,
                timeout=job.timeout if job.timeout is not None else timeout,
            )

        try:
            _drain(jobs, records, results, pending, on_pool, settle,
                   backoff, lanes=min(workers, len(pending)))
        finally:
            spawn_failures, recycled = pool.spawn_failures, pool.recycled
            if own_pool:
                pool.close()

    for record in records:
        if record.status == "pending":
            record.status = "failed"
            record.failure = record.failure or "error"
            record.error = record.error or "job was never scheduled"
    return CampaignResult(
        jobs=records,
        results=results,
        wall_time=time.monotonic() - started,
        workers=workers if use_pool else 1,
        spawn_failures=spawn_failures,
        workers_recycled=recycled,
    )


def _drain(jobs, records, results, pending, start, settle, backoff,
           lanes) -> None:
    """Drive every pending job to a terminal state.

    The campaign's one scheduling loop.  ``start(job)`` runs one attempt
    and returns its outcome dict; ``settle(i, outcome)`` records it (and
    its result) and says whether the job retries.  A duplicate waits for
    its twin and shares its result, and a retry waits out its backoff
    while other ready jobs start.  With one lane the loop runs on the
    calling thread; otherwise ``lanes`` threads share the queue, each
    blocking in ``start``.
    """
    cv = threading.Condition()
    not_before: Dict[int, float] = {}
    running = 0
    stopped = False

    def next_job() -> Optional[int]:
        """Under ``cv``: the next job to start; None once none ever will."""
        nonlocal running
        while not stopped:
            deferred, wake, ready = [], None, None
            while pending and ready is None:
                entry = pending.popleft()
                kind, i, twin = entry
                if kind == "dup" and records[twin].status != "pending":
                    _resolve_duplicate(records, results, pending, i, twin)
                elif kind == "dup":
                    deferred.append(entry)  # twin in flight or retrying
                elif not_before.get(i, 0.0) > time.monotonic():
                    deferred.append(entry)
                    wake = (not_before[i] if wake is None
                            else min(wake, not_before[i]))
                else:
                    ready = i
            pending.extendleft(reversed(deferred))
            if ready is not None:
                running += 1
                return ready
            if wake is None and not running:
                return None
            cv.wait(None if wake is None else wake - time.monotonic())
        return None

    def lane() -> None:
        nonlocal running
        while True:
            with cv:
                i = next_job()
                if i is None:
                    return
                records[i].attempts += 1
            outcome = None
            try:
                outcome = start(jobs[i])
            finally:
                with cv:
                    running -= 1
                    cv.notify_all()
                    if outcome is not None and settle(i, outcome):
                        not_before[i] = time.monotonic() + backoff * (
                            2 ** (records[i].attempts - 1))
                        pending.append(("run", i, 0))

    if lanes == 1:
        lane()
        return
    threads = ThreadPoolExecutor(lanes, thread_name_prefix="campaign")
    try:
        for future in [threads.submit(lane) for _ in range(lanes)]:
            future.result()
    except BaseException:
        with cv:  # let in-flight attempts finish; start nothing new
            stopped = True
            cv.notify_all()
        raise
    finally:
        threads.shutdown(wait=False)


def _resolve_duplicate(records, results, pending, i: int, twin: int) -> None:
    """Share a finished twin job's outcome with a duplicate-spec job.

    A successful twin is shared as a free ``cache_hit``, result and all.
    A twin that *failed* promotes the duplicate to run on its own attempt
    budget - a transient failure (timeout, crashed worker) must not
    cascade through every duplicate - and re-points any later duplicates
    of the same key at the promoted job, so at most one execution is in
    flight per key at a time.
    """
    twin_record = records[twin]
    record = records[i]
    if twin_record.status in ("ok", "cache_hit"):
        record.status = "cache_hit"
        record.events_executed = twin_record.events_executed
        record.total_cycles = twin_record.total_cycles
        record.num_epochs = twin_record.num_epochs
        results[i] = results[twin]
    else:
        for idx, entry in enumerate(pending):
            if entry[0] == "dup" and entry[2] == twin:
                pending[idx] = ("dup", entry[1], i)
        logger.warning(
            "campaign job %s: twin %s failed (%s); promoting the "
            "duplicate to its own run", record.tag, twin_record.tag,
            twin_record.failure,
        )
        pending.append(("run", i, 0))

