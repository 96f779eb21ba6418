"""Run a ``repro.serve`` daemon in its own process for ``serve-mixed``.

    python3 perfbench/serve_daemon.py --work DIR [--trace]

The daemon keeps its result cache and write-ahead journal under ``DIR``,
writes ``DIR/port`` once it listens, and after a drain (``POST
/v1/shutdown`` or SIGTERM) writes ``DIR/exit.json`` with its peak RSS.

With ``--trace`` the launcher wraps the daemon-side layers (result
cache, warm pool, job executor) before calling the public
:class:`~repro.serve.daemon.ServeDaemon`.  Pool workers are forkserver
children, which import this file as ``__mp_main__``; under tracing they
also time each job and its document encoding and return those times on
the job's outcome, so the daemon can split a ``run_job`` call into
worker time and pool overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKER_TRACE_ENV = "PERFBENCH_TRACE_WORKERS"


def _install_worker_probe() -> None:
    """In a pool worker: time ``_execute_job`` and its document encoding."""
    from repro.exec import runner

    execute, encode = runner._execute_job, runner.result_to_document
    spent = {"encode": 0.0}

    def timed_encode(result):
        began = time.perf_counter()
        document = encode(result)
        spent["encode"] += time.perf_counter() - began
        return document

    def timed_execute(*args, **kwargs):
        spent["encode"] = 0.0
        began = time.perf_counter()
        outcome = execute(*args, **kwargs)
        outcome["perfbench_exec_s"] = time.perf_counter() - began
        outcome["perfbench_encode_s"] = spent["encode"]
        return outcome

    runner.result_to_document = timed_encode
    runner._execute_job = timed_execute


if __name__ == "__mp_main__" and os.environ.get(WORKER_TRACE_ENV) == "1":
    harness.require_source()
    _install_worker_probe()


def instrument_daemon(tracer) -> None:
    """Spans on the daemon-side layers a job passes through."""
    from repro.exec.cache import ResultCache
    from repro.exec.pool import WorkerPool
    from repro.serve.executor import JobExecutor

    def document_size(path, _seconds):
        tracer.sample("doc_bytes", float(os.path.getsize(path)))

    def split_run_job(outcome, seconds):
        worker_s = outcome.pop("perfbench_exec_s", None)
        encode_s = outcome.pop("perfbench_encode_s", 0.0)
        if worker_s is not None:
            tracer.sample("worker_exec_s", worker_s)
            tracer.sample("worker_encode_s", encode_s)
            tracer.sample("pool_overhead_s", seconds - worker_s)

    tracer.wrap(ResultCache, "get_entry", "exec.cache.get")
    tracer.wrap(ResultCache, "put_document", "exec.cache.put",
                after=document_size)
    tracer.wrap(WorkerPool, "run_job", "exec.pool.run_job",
                after=split_run_job)
    tracer.wrap(JobExecutor, "execute", "serve.execute")


def main() -> int:
    harness.require_source()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")

    from repro.serve.daemon import ServeDaemon

    import tracer as tracing

    tracer = None
    if args.trace:
        os.environ[WORKER_TRACE_ENV] = "1"
        tracer = tracing.Tracer()
        instrument_daemon(tracer)
    work = Path(args.work)
    daemon = ServeDaemon(host="127.0.0.1", port=0, cache=str(work / "cache"),
                         journal_dir=str(work / "journal"))

    async def serve() -> None:
        await daemon.start()
        tmp = work / "port.tmp"
        tmp.write_text(str(daemon.port))
        tmp.replace(work / "port")
        await daemon.serve_forever()

    asyncio.run(serve())
    report = {"peak_rss_mb": harness.peak_rss_mb()}
    if tracer is not None:
        report["trace"] = tracer.to_document()
    tracing.write_document(work / "exit.json", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
