"""Durability + tenancy over real daemons: crash recovery, fairness.

These tests exercise the serving stack end to end over HTTP loopback:
a killed member replays its write-ahead journal into a replacement and
completes every admitted job exactly once; two backlogged tenants
complete work in proportion to their weights; quota breaches surface as
429 + Retry-After; a worker-less drain hands queued jobs off through
the journal; and a fresh member rewarms from the shared store instead
of recomputing.  One test boots ``pathfinder serve`` as a process,
because the daemon installs its SIGTERM handler only on a main thread.
"""

import logging
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.core import AppSpec, ProfileSpec
from repro.core.persistence import spec_to_document
from repro.durable import JobJournal
from repro.durable import journal as wal
from repro.exec import CampaignJob, cxl_node_id
from repro.fleet import LocalFleet
from repro.serve import BackgroundServer, ServeClient, ServeError
from repro.sim import spr_config
from repro.workloads import build_app


def make_spec(seed: int = 3, num_ops: int = 600) -> ProfileSpec:
    workload = build_app("541.leela_r", num_ops=num_ops, seed=seed)
    app = AppSpec(
        workload=workload, core=0, membind=cxl_node_id(spr_config())
    )
    return ProfileSpec(apps=[app], epoch_cycles=20_000.0)


def wait_for(predicate, timeout=30.0, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


# -- crash recovery ------------------------------------------------------


def test_killed_member_replays_journal_and_completes_exactly_once(tmp_path):
    journal_root = tmp_path / "journal"
    with LocalFleet(size=1, workers=1, queue_depth=16,
                    cache_root=str(tmp_path / "cache"),
                    journal_root=str(journal_root)) as fleet:
        client = ServeClient(port=fleet.servers[0].port)
        ids = [client.submit_run(make_spec(seed=70 + i, num_ops=3000))
               ["job_id"] for i in range(3)]
        # Kill mid-flight: one job running, the rest queued.
        assert wait_for(
            lambda: client.metrics()["queue"]["in_flight"] >= 1
        ), "no job ever started"
        fleet.kill(0)

        fleet.restart(0)
        client2 = ServeClient(port=fleet.servers[0].port)
        recovered = client2.metrics()["counters"]["jobs_recovered"]
        assert recovered >= 2  # at least the two queued jobs were owed

        finished_here = 0
        for job_id in ids:
            try:
                final = client2.wait(job_id, timeout=600)
            except ServeError as exc:
                # Only a job that was journaled terminal before the kill
                # may be unknown to the replacement.
                assert exc.status == 404
                continue
            assert final["state"] == "done", final
            finished_here += 1
        assert finished_here == recovered
        # Exactly once: every completion on the replacement is a
        # recovered job, none ran twice.
        counters = client2.metrics()["counters"]
        assert counters["jobs_completed"] == recovered
        assert counters.get("jobs_cache_hit", 0) == 0

        # Idempotent resubmission after recovery: results are cached.
        again = client2.submit_run(make_spec(seed=70, num_ops=3000))
        assert again["state"] == "done" and again["cache_hit"] is True

    # Nothing is owed once the dust settles.
    with JobJournal(journal_root / "member0", fsync=False) as journal:
        assert journal.recover().unfinished == []


def test_workerless_drain_hands_queued_jobs_to_the_journal(tmp_path):
    journal_dir = tmp_path / "journal"
    # workers=0 wedges the queue: a drain has nobody to finish the work.
    server = BackgroundServer(workers=0, queue_depth=8, cache=None,
                              journal_dir=str(journal_dir)).start()
    client = ServeClient(port=server.port)
    ids = [client.submit_run(make_spec(seed=81 + i))["job_id"]
           for i in range(2)]
    client.shutdown()
    server.stop()  # joins the drain
    assert server.daemon.metrics.snapshot()["counters"][
        "jobs_handed_off"] == 2

    # The journal still owes both jobs, under their original ids ...
    with JobJournal(journal_dir, fsync=False) as journal:
        recovery = journal.recover()
    assert sorted(job_id for job_id, _ in recovery.unfinished) == sorted(ids)

    # ... and a successor daemon with workers completes them.
    successor = BackgroundServer(workers=1, queue_depth=8,
                                 cache=str(tmp_path / "cache"),
                                 journal_dir=str(journal_dir)).start()
    client2 = ServeClient(port=successor.port)
    for job_id in ids:
        assert client2.wait(job_id, timeout=600)["state"] == "done"
    successor.stop(force=True)


def test_replay_seals_a_job_whose_live_spec_no_longer_parses(tmp_path,
                                                                caplog):
    # An older client or daemon can journal LiveSpec fields this
    # version does not have (ServeClient sends dataclasses.asdict(live)).
    # Replay seals such a job as failed instead of wedging recovery, and
    # still runs the jobs after it.
    journal_dir = tmp_path / "journal"
    with JobJournal(journal_dir, fsync=False) as journal:
        journal.append(wal.ADMITTED, "old-live", {
            "spec": spec_to_document(make_spec(seed=91)),
            "live": {"window": 8, "horizon": 1},
        })
        journal.append(wal.ADMITTED, "plain", {
            "spec": spec_to_document(make_spec(seed=92)),
        })
    caplog.set_level(logging.WARNING, logger="repro.serve.daemon")
    with BackgroundServer(workers=1, queue_depth=8,
                          cache=str(tmp_path / "cache"),
                          journal_dir=str(journal_dir)) as server:
        client = ServeClient(port=server.port)
        assert client.wait("plain", timeout=600)["state"] == "done"
        assert client.metrics()["counters"]["jobs_recovered"] == 1
        with pytest.raises(ServeError) as excinfo:
            client.job("old-live")
        assert excinfo.value.status == 404
    sealed = [r.getMessage() for r in caplog.records
              if "unrecoverable" in r.getMessage()]
    assert len(sealed) == 1 and "old-live" in sealed[0]
    with JobJournal(journal_dir, fsync=False) as journal:
        assert journal.recover().unfinished == []


# -- a real process under real signals ----------------------------------


ROOT = Path(__file__).resolve().parent.parent
LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")


def boot_serve(log_path, *flags):
    """Start ``pathfinder serve --port 0 --workers 1 FLAGS``; (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve", "--port", "0",
             "--workers", "1", *flags],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
        )
    wait_for(lambda: proc.poll() is not None
             or LISTENING.search(log_path.read_text()), timeout=120)
    match = LISTENING.search(log_path.read_text())
    if match is None:
        kill(proc)
        pytest.fail(f"daemon did not start:\n{log_path.read_text()}")
    return proc, int(match.group(1))


def kill(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=60)


def test_serve_process_replays_after_sigkill_and_drains_on_sigterm(tmp_path):
    flags = ["--cache-dir", str(tmp_path / "cache"),
             "--journal-dir", str(tmp_path / "journal"),
             "--shared-cache", str(tmp_path / "shared"),
             "--tenant", "A:3", "--tenant", "B:1"]
    proc, port = boot_serve(tmp_path / "first.log", *flags)
    try:
        client = ServeClient(port=port, tenant="A")
        ids = [client.submit_run(make_spec(seed=70 + i, num_ops=2000))
               ["job_id"] for i in range(3)]
        assert wait_for(
            lambda: client.metrics()["queue"]["in_flight"] >= 1
        ), "no job ever started"
    finally:
        kill(proc)  # SIGKILL: no drain, nothing sealed in the journal

    proc, port = boot_serve(tmp_path / "second.log", *flags)
    try:
        client = ServeClient(port=port, tenant="A")
        recovered = client.metrics()["counters"]["jobs_recovered"]
        assert recovered >= 2  # at least the two queued jobs were owed
        finished_here = 0
        for job_id in ids:
            try:
                final = client.wait(job_id, timeout=600)
            except ServeError as exc:
                # Journaled terminal before the kill.
                assert exc.status == 404
                continue
            assert final["state"] == "done", final
            finished_here += 1
        counters = client.metrics()["counters"]
        assert finished_here == recovered == counters["jobs_completed"]
        assert client.tenants()["A"]["policy"]["weight"] == 3.0

        # SIGTERM drains the running and the queued job into the cache,
        # then exits 0.
        specs = [make_spec(seed=77), make_spec(seed=78)]
        for spec in specs:
            client.submit_run(spec)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=300) == 0
        for spec in specs:
            key = CampaignJob(spec=spec, config=api.config_for(spec)).key()
            assert (tmp_path / "cache" / f"{key}.json").exists()
    finally:
        kill(proc)


# -- tenancy -------------------------------------------------------------


def test_two_tenant_contention_completes_in_weight_proportion(tmp_path):
    with BackgroundServer(workers=1, queue_depth=64,
                          cache=str(tmp_path / "cache"),
                          tenants=["A:3", "B:1"]) as server:
        # Every terminal event goes out with its finish already counted,
        # so a client woken by ``done`` reads up-to-date tenant counters.
        live_log = server.daemon.store.daemon_log
        counted_at_done = []
        cursor = [len(live_log)]
        reading = threading.Lock()

        def check_done():
            # A waker runs on each appending thread, so it may also find
            # an event another thread appended.
            with reading:
                start, events = live_log.read(cursor[0])
                cursor[0] = start + len(events)
                for event in events:
                    if event["event"] == "done":
                        rows = server.daemon.tenants.snapshot().values()
                        counted_at_done.append(
                            (sum(row["counters"].get("completed", 0)
                                 for row in rows),
                             sum(row["in_flight"] for row in rows)))

        live_log.wakers.append(check_done)
        sacrificial = ServeClient(port=server.port)
        client_a = ServeClient(port=server.port, tenant="A")
        client_b = ServeClient(port=server.port, tenant="B")
        # A long job pins the single worker while both tenants pile up
        # a backlog, so dequeue order is pure weighted-fair scheduling.
        blocker = sacrificial.submit_run(make_spec(seed=90, num_ops=8000))
        ids = {}
        for i in range(8):
            ids[client_a.submit_run(
                make_spec(seed=100 + i, num_ops=200))["job_id"]] = "A"
            ids[client_b.submit_run(
                make_spec(seed=200 + i, num_ops=200))["job_id"]] = "B"

        sacrificial.wait(blocker["job_id"], timeout=600)
        started = []
        for job_id, tenant in ids.items():
            final = sacrificial.wait(job_id, timeout=600)
            assert final["state"] == "done"
            started.append((final["started_at"], tenant))
        started.sort()

        # While both lanes were backlogged (the first 8 dequeues), the
        # 3:1 weights mean a 6/2 split -- A's completed share is within
        # +/-10% of its configured 75%.
        first8 = [tenant for _, tenant in started[:8]]
        share_a = first8.count("A") / 8.0
        assert abs(share_a - 0.75) <= 0.10, first8

        snapshot = sacrificial.tenants()
        assert snapshot["A"]["policy"]["weight"] == 3.0
        assert snapshot["A"]["counters"]["completed"] == 8
        assert snapshot["B"]["counters"]["completed"] == 8
        rollup = sacrificial.metrics()
        assert rollup["tenants"]["A"]["in_flight"] == 0
        assert counted_at_done == [(n, 0) for n in range(1, 18)]


def test_tenant_quota_breach_gets_429_with_retry_after():
    with BackgroundServer(workers=0, queue_depth=8, cache=None,
                          tenants=["q:max_queued=2",
                                   "r:rate=0.001,burst=1"]) as server:
        client_q = ServeClient(port=server.port, tenant="q")
        for seed in (301, 302):
            client_q.submit_run(make_spec(seed=seed))
        with pytest.raises(ServeError) as err:
            client_q.submit_run(make_spec(seed=303))
        assert err.value.status == 429
        assert err.value.retry_after is not None and err.value.retry_after >= 1

        client_r = ServeClient(port=server.port, tenant="r")
        client_r.submit_run(make_spec(seed=304))
        with pytest.raises(ServeError) as err:
            client_r.submit_run(make_spec(seed=305))
        assert err.value.status == 429
        # The token bucket's own hint: ~1000s at 0.001 tokens/s.
        assert err.value.retry_after is not None and err.value.retry_after > 60

        # Other tenants are unaffected by q's and r's quotas.
        ServeClient(port=server.port).submit_run(make_spec(seed=306))

        # A malformed tenant header is rejected outright.
        with pytest.raises(ServeError) as err:
            ServeClient(port=server.port,
                        tenant="no spaces").submit_run(make_spec(seed=307))
        assert err.value.status == 400
        server.stop(force=True)


# -- shared store --------------------------------------------------------


def test_fresh_member_rewarms_from_shared_store(tmp_path):
    shared = tmp_path / "shared"
    spec = make_spec(seed=95)
    with BackgroundServer(workers=1, cache=str(tmp_path / "m0"),
                          shared_cache=str(shared)) as first:
        client = ServeClient(port=first.port)
        job = client.submit_run(spec)
        final = client.wait(job["job_id"], timeout=600)
        assert final["state"] == "done" and final["cache_hit"] is False
        assert first.daemon.cache.publishes == 1

    # A brand-new member with an empty local cache answers the same
    # submission born-done by pulling the entry through the shared tier.
    with BackgroundServer(workers=1, cache=str(tmp_path / "m1"),
                          shared_cache=str(shared)) as second:
        client = ServeClient(port=second.port)
        reply = client.submit_run(spec)
        assert reply["state"] == "done" and reply["cache_hit"] is True
        stats = client.metrics()["cache"]
        assert stats["remote_hits"] == 1
        assert stats["shared"]["entries"] == 1
