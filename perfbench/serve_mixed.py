"""The ``serve-mixed`` workload: a closed loop against a serve daemon.

Two client connections (threads of this process) each submit small
single-app ``POST /v1/run`` jobs, wait for ``done`` on the job's NDJSON
event stream, then fetch ``GET /v1/jobs/<id>/result``; the next job is
sent only after that.  Jobs alternate between a fresh seed (a *cold*
job: pool dispatch, simulation, document encoding, cache write, journal
append) and a repeat of one of the client's earlier specs (a *hit*:
cache read and HTTP).  A pass is ``JOBS_PER_CLIENT`` jobs per client.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.serve import ServeClient
from repro.serve.client import ServeError
from repro.serve.jobs import counters_from_session

import harness
import inproc
import reference
import specs
import tracer as tracing

CLIENTS = 2
JOBS_PER_CLIENT = 8
JOB_TIMEOUT_S = 60.0
DAEMON = harness.BENCH_DIR / "serve_daemon.py"
#: What the daemon's executor logs when a job runs without the warm pool.
FALLBACK_LOG = "falling back to a one-shot worker"


@dataclass
class JobOp:
    kind: str  # "cold" | "hit"
    latency_s: float = 0.0
    ok: bool = True
    error: str = ""
    cycles: float = 0.0
    events: int = 0
    job_wall_s: float = 0.0
    status: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Pass:
    wall_s: float
    ops: List[JobOp]


class DaemonProcess:
    """One daemon subprocess in its own session (process group)."""

    def __init__(self, work: Path, trace: bool = False) -> None:
        self.work = work
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> int:
        self.work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(DAEMON), "--work", str(self.work)]
        if self.trace:
            cmd.append("--trace")
        with open(self.work / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=log,
                cwd=str(harness.ROOT), start_new_session=True,
            )
        port_file = self.work / "port"
        deadline = time.monotonic() + 60.0
        while not port_file.is_file():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve daemon did not start; see "
                                   f"{self.work / 'daemon.log'}")
            time.sleep(0.01)
        self.port = int(port_file.read_text())
        client = ServeClient(port=self.port)
        while not client.ready():
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon never became ready")
            time.sleep(0.01)
        return self.port

    def metrics(self) -> Dict[str, Any]:
        return ServeClient(port=self.port).metrics()

    def fallbacks(self) -> int:
        log = self.work / "daemon.log"
        return log.read_text(errors="replace").count(FALLBACK_LOG) \
            if log.is_file() else 0

    def stop(self) -> Dict[str, Any]:
        """Drain the daemon, wait for its whole process group to end."""
        if self.proc is None:
            return {}
        try:
            if self.proc.poll() is None and self.port:
                ServeClient(port=self.port, timeout=10.0).shutdown()
            self.proc.wait(timeout=60.0)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30.0)
        _reap_group(self.proc.pid)
        report = self.work / "exit.json"
        return json.loads(report.read_text()) if report.is_file() else {}


def _reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait for the pool workers and forkserver the daemon started."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


class Client:
    """One closed-loop caller with its own deterministic job stream."""

    def __init__(self, port: int, seed: int, index: int,
                 scale: specs.Scale, tracer=tracing.NULL) -> None:
        self.api = ServeClient(port=port, timeout=JOB_TIMEOUT_S)
        self.rng = random.Random(f"serve-mixed/{seed}/{index}")
        self.scale = scale
        self.tracer = tracer
        self.cold: List[Tuple[Any, str]] = []  # (spec, counter digest)
        self.problems: List[str] = []

    def run(self, count: int) -> List[JobOp]:
        return [self.job("cold" if i % 2 == 0 else "hit") for i in range(count)]

    def job(self, kind: str) -> JobOp:
        if kind == "cold" or not self.cold:
            kind = "cold"
            spec = specs.serve_job(self.rng.randrange(1, 2 ** 31), self.scale)
            twin = None
        else:
            spec, twin = self.rng.choice(self.cold)
        op = JobOp(kind)
        span = self.tracer.span
        began = time.perf_counter()
        try:
            with span("serve.submit"):
                job = self.api.submit_run(spec)
            final = job
            if job["state"] not in ("done", "failed"):
                with span("serve.wait"):
                    for event in self.api.events(job["job_id"],
                                                 timeout=JOB_TIMEOUT_S):
                        if event["event"] in ("done", "failed"):
                            final = event
                            break
            if final.get("event", final.get("state")) != "done":
                raise RuntimeError(f"job {job['job_id']} ended "
                                   f"{final.get('failure') or final}")
            with span("serve.result"):
                result = self.api.result(job["job_id"])
            op.latency_s = time.perf_counter() - began
        except (ServeError, OSError, RuntimeError, ValueError) as exc:
            op.latency_s = time.perf_counter() - began
            op.ok = False
            op.error = f"{type(exc).__name__}: {exc}"
            return op
        totals = {(s, e): v for s, e, v in counters_from_session(result["session"])}
        digest = inproc.counter_digest(totals)
        if kind == "cold":
            if result["cache_hit"]:
                self.problems.append(f"cold job {job['job_id']} was a cache hit")
            self.cold.append((spec, digest))
            op.cycles = max((f["ended_at"] for f in result["session"]["flows"]
                             if f["ended_at"] is not None),
                            default=float(final.get("total_cycles", 0.0)))
            op.events = int(final.get("events_executed", 0))
            op.job_wall_s = float(final.get("wall_time", 0.0))
        else:
            if not result["cache_hit"]:
                self.problems.append(f"repeat job {job['job_id']} missed the cache")
            if digest != twin:
                self.problems.append(f"repeat job {job['job_id']} counters "
                                     f"differ from its cold twin")
        if self.tracer.enabled:
            op.status = self.api.job(job["job_id"])
        return op


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, scale: specs.Scale, scale_name: str) -> None:
        self.seed = seed
        self.scale = scale
        self.scale_name = scale_name
        self.work = harness.WORK_DIR / f"serve-{os.getpid()}"

    def _start(self, name: str, trace: bool = False) -> Tuple[DaemonProcess, float]:
        """Daemon start to readyz plus one warm-up job through the pool."""
        daemon = DaemonProcess(self.work / name, trace=trace)
        began = time.perf_counter()
        daemon.start()
        warm = Client(daemon.port, self.seed, 99, self.scale).job("cold")
        if not warm.ok:
            raise RuntimeError(f"warm-up job failed: {warm.error}")
        return daemon, time.perf_counter() - began

    def _passes(self, daemon: DaemonProcess, seconds: float,
                tracer=tracing.NULL) -> Tuple[List[Pass], List[str]]:
        clients = [Client(daemon.port, self.seed, i, self.scale, tracer)
                   for i in range(CLIENTS)]
        with ThreadPoolExecutor(max_workers=CLIENTS,
                                thread_name_prefix="client") as pool:
            def run_pass(_index: int) -> Pass:
                began = time.perf_counter()
                futures = [pool.submit(c.run, JOBS_PER_CLIENT) for c in clients]
                ops = [op for f in futures for op in f.result()]
                return Pass(time.perf_counter() - began, ops)

            passes = harness.timed_passes(run_pass, seconds)
        return passes, [p for c in clients for p in c.problems]

    @staticmethod
    def _failures(daemon: DaemonProcess, metrics: Dict[str, Any],
                  passes: List[Pass], problems: List[str]) -> Tuple[int, List[str]]:
        """Failed ops plus silent degradations the daemon reports."""
        ops = [op for p in passes for op in p.ops]
        failures = [f"{op.kind} job: {op.error}" for op in ops if not op.ok]
        counters = metrics.get("counters", {})
        fallbacks = daemon.fallbacks()
        spawn_failures = int(counters.get("pool_spawn_failure", 0))
        if fallbacks:
            failures.append(f"{fallbacks} job(s) ran without the warm pool")
        if spawn_failures:
            failures.append(f"{spawn_failures} pool worker spawn failure(s)")
        failed = sum(1 for op in ops if not op.ok) + fallbacks
        return failed, failures + problems

    def measure(self, seconds: float) -> Dict[str, Any]:
        daemon = None
        try:
            setups = []
            for i in range(self.scale.setup_repeats):
                daemon, setup_s = self._start(f"setup{i}")
                setups.append(setup_s)
                if i < self.scale.setup_repeats - 1:
                    daemon.stop()
            passes, problems = self._passes(daemon, seconds)
            metrics = daemon.metrics()
            report = daemon.stop()
            failed, failures = self._failures(daemon, metrics, passes, problems)
        finally:
            if daemon is not None:
                daemon.stop()
            shutil.rmtree(self.work, ignore_errors=True)
        return {
            "passes": passes,
            "setup_s": harness.median(setups),
            "peak_rss_mb": report.get("peak_rss_mb", 0.0),
            "refs": {"panel": reference.cached_panel(self.scale_name)},
            "attempted": sum(len(p.ops) for p in passes),
            "failed": failed,
            "failures": failures,
        }

    def trace(self, seconds: float) -> Dict[str, Any]:
        daemon = None
        try:
            daemon, _ = self._start("plain")
            plain, problems = self._passes(daemon, seconds / 2)
            plain_metrics = daemon.metrics()
            daemon.stop()
            failed, failures = self._failures(daemon, plain_metrics, plain,
                                              problems)
            daemon, _ = self._start("traced", trace=True)
            # Daemon totals before the traced passes, so per-pass counts
            # leave out the warm-up job.
            baseline = daemon.metrics()
            traced_from = time.perf_counter()
            tracer = tracing.Tracer()
            traced, problems = self._passes(daemon, seconds / 2, tracer)
            metrics = daemon.metrics()
            report = daemon.stop()
            more_failed, more = self._failures(daemon, metrics, traced, problems)
        finally:
            if daemon is not None:
                daemon.stop()
            shutil.rmtree(self.work, ignore_errors=True)
        # perf_counter is the system-wide monotonic clock, so the daemon's
        # spans compare with ``traced_from``.  The warm-up job was the
        # traced daemon's first job: its samples come first.
        daemon_trace = tracing.Tracer.from_document(report.get("trace") or {})
        return {
            "plain": plain,
            "traced": traced,
            "tracer": tracer,
            "daemon": report,
            "daemon_rows": daemon_trace.by_name(since=traced_from),
            "daemon_samples": {name: values[1:] for name, values
                               in daemon_trace.samples.items()},
            "metrics": metrics,
            "baseline": baseline,
            "refs": {"panel": reference.cached_panel(self.scale_name)},
            "attempted": sum(len(p.ops) for p in plain + traced),
            "failed": failed + more_failed,
            "failures": failures + more,
        }
