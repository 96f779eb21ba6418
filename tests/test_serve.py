"""repro.serve: HTTP round trip, admission control, drain, streaming.

These tests run a real daemon (own thread, OS-assigned port) and talk to
it over real sockets, because the serving contract *is* the wire format:
an in-process shortcut would not catch a broken chunked encoding or a
missing Retry-After header.
"""

import errno
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.core import AppSpec, ProfileSpec
from repro.exec import cxl_node_id
from repro.serve import BackgroundServer, ServeClient, ServeError
from repro.sim import spr_config
from repro.workloads import build_app


def make_spec(seed: int = 3, num_ops: int = 600,
              epoch_cycles: float = 20_000.0) -> ProfileSpec:
    workload = build_app("541.leela_r", num_ops=num_ops, seed=seed)
    app = AppSpec(
        workload=workload, core=0, membind=cxl_node_id(spr_config())
    )
    return ProfileSpec(apps=[app], epoch_cycles=epoch_cycles)


def reference_counters(spec: ProfileSpec) -> list:
    result = api.run(spec, config=api.config_for(spec))
    return sorted(
        ([scope, event, value]
         for (scope, event), value in api.counters(result).items()),
        key=lambda row: (row[0], row[1]),
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with BackgroundServer(workers=1, queue_depth=8,
                          cache=str(cache_dir)) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(port=server.port)


# -- end-to-end equivalence ----------------------------------------------


def test_run_over_http_matches_in_process_counters(client):
    spec = make_spec()
    job = client.submit_run(spec, tag="e2e")
    final = client.wait(job["job_id"], timeout=300)
    assert final["state"] == "done"
    assert final["cache_hit"] is False
    assert final["events_executed"] > 0
    assert final["counters"] == reference_counters(make_spec())


def test_resubmission_is_an_idempotent_cache_hit(client):
    spec = make_spec()
    first = client.wait(client.submit_run(spec)["job_id"], timeout=300)
    again = client.submit_run(make_spec())
    # Born done straight from the cache: no queue round trip.
    assert again["state"] == "done"
    assert again["cache_hit"] is True
    assert again["counters"] == first["counters"]
    metrics = client.metrics()
    assert metrics["counters"]["jobs_cache_hit"] >= 1
    assert metrics["cache"]["hits"] >= 1


def test_events_stream_is_well_formed_ndjson(client):
    spec = make_spec(seed=11)
    job = client.submit_run(spec, tag="stream")
    events = list(client.events(job["job_id"], timeout=300))
    assert events, "stream ended with no events"
    # Monotonic seq starting at 0, every line a self-identifying object.
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert all(event["job_id"] == job["job_id"] for event in events)
    names = [event["event"] for event in events]
    assert names[-1] in ("done", "failed")
    assert "queued" in names or events[0]["event"] == "done"
    done = events[-1]
    assert done["event"] == "done"
    assert done["counters"] == reference_counters(make_spec(seed=11))


def test_unknown_job_is_404(client):
    with pytest.raises(ServeError) as err:
        client.job("j99999-deadbeef")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        list(client.events("j99999-deadbeef"))
    assert err.value.status == 404


def test_malformed_spec_is_400(client):
    status, _, body = client._request(
        "POST", "/v1/run", {"spec": {"format": 1, "apps": []}}
    )
    assert status == 400
    assert "error" in body
    status, _, _ = client._request("POST", "/v1/run", {"nonsense": True})
    assert status == 400


def test_health_and_metrics_endpoints(client):
    health = client.health()
    assert health["status"] == "ok"
    metrics = client.metrics()
    assert metrics["queue"]["capacity"] == 8
    assert "GET /healthz" in metrics["endpoint_latency_ms"]
    assert metrics["endpoint_latency_ms"]["GET /healthz"]["count"] >= 1


# -- admission control ----------------------------------------------------


def test_queue_pressure_triggers_429_with_retry_after():
    # workers=0 wedges the queue on purpose: nothing ever drains, so the
    # depth-1 queue is full after one submission.
    with BackgroundServer(workers=0, queue_depth=1, cache=None) as server:
        client = ServeClient(port=server.port)
        first = client.submit_run(make_spec(seed=21))
        assert first["state"] == "queued"
        assert not client.ready()  # full queue flips readiness
        with pytest.raises(ServeError) as err:
            client.submit_run(make_spec(seed=22))
        assert err.value.status == 429
        assert err.value.retry_after is not None
        assert err.value.retry_after >= 1
        assert client.metrics()["counters"]["jobs_rejected"] >= 1
        server.stop(force=True)


def test_duplicate_submission_dedupes_onto_queued_job():
    with BackgroundServer(workers=0, queue_depth=4, cache=None) as server:
        client = ServeClient(port=server.port)
        first = client.submit_run(make_spec(seed=31))
        second = client.submit_run(make_spec(seed=31))
        assert second["job_id"] == first["job_id"]
        assert len(client.jobs()) == 1
        server.stop(force=True)


def test_campaign_admission_is_all_or_nothing():
    with BackgroundServer(workers=0, queue_depth=2, cache=None) as server:
        client = ServeClient(port=server.port)
        subs = [client.submission(make_spec(seed=s)) for s in (41, 42, 43)]
        with pytest.raises(ServeError) as err:
            client.submit_campaign(subs)
        assert err.value.status == 429
        assert client.jobs() == []  # nothing half-admitted
        accepted = client.submit_campaign(subs[:2])
        assert len(accepted["jobs"]) == 2
        server.stop(force=True)


# -- graceful shutdown ----------------------------------------------------


def test_shutdown_drains_queued_and_in_flight_jobs(tmp_path):
    server = BackgroundServer(workers=1, queue_depth=8,
                              cache=str(tmp_path / "cache")).start()
    client = ServeClient(port=server.port)
    jobs = [client.submit_run(make_spec(seed=51 + i)) for i in range(2)]
    assert all(job["state"] in ("queued", "running") for job in jobs)
    client.shutdown()  # same path as SIGTERM
    server.stop()  # joins the drain
    store = server.daemon.store
    for job in jobs:
        record = store.get(job["job_id"])
        assert record.state == "done", (record.state, record.error)
    # Draining refused new work before exiting.
    assert server.daemon._draining is True


# -- typed spawn failure ---------------------------------------------------


def test_spawn_failure_fails_the_job_typed(monkeypatch):
    # A daemon whose pool cannot start a worker ends the job FAILED /
    # spawn_failed after its retries and counts every failed start in
    # /metricsz; no other path runs the job instead.
    from repro.exec.pool import _pool_context

    def start(self):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(_pool_context(None).Process, "start", start)
    with BackgroundServer(workers=1, queue_depth=4, cache=None,
                          retries=1) as server:
        client = ServeClient(port=server.port)
        job = client.submit_run(make_spec(seed=61))
        final = client.wait(job["job_id"], timeout=120)
        counters = client.metrics()["counters"]
    assert final["state"] == "failed"
    assert final["failure"] == "spawn_failed"
    assert final["attempts"] == 2
    assert counters["pool_spawn_failure"] == 2
    assert counters.get("pool_spawned", 0) == 0


# -- push delivery ----------------------------------------------------------


def eventually(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_done_reaches_both_streams_within_milliseconds():
    # ``done`` is pushed the moment it is published, so it reaches both
    # kinds of stream within milliseconds; a poll loop adds up to its
    # interval (half of it in the median).
    jobs = 20
    with BackgroundServer(workers=1, queue_depth=8, cache=None) as server:
        client = ServeClient(port=server.port)
        live_lags, stream_lags = [], []
        subscribed = threading.Event()

        def follow_live():
            for event in client.live(timeout=120):
                if event["event"] == "hello":
                    subscribed.set()
                elif event["event"] == "done":
                    live_lags.append(time.time() - event["ts"])
                    if len(live_lags) == jobs:
                        return

        follower = threading.Thread(target=follow_live, daemon=True)
        follower.start()
        assert subscribed.wait(30)
        for seed in range(jobs):
            job = client.submit_run(make_spec(seed=200 + seed, num_ops=100))
            for event in client.events(job["job_id"], timeout=120):
                if event["event"] == "done":
                    stream_lags.append(time.time() - event["ts"])
        follower.join(30)
    assert len(stream_lags) == len(live_lags) == jobs
    assert statistics.median(stream_lags) < 0.010, sorted(stream_lags)
    assert statistics.median(live_lags) < 0.010, sorted(live_lags)


def test_a_finished_stream_releases_its_wake_callback(client, server):
    # The handler deregisters before it sends the final chunk.
    job = client.submit_run(make_spec(seed=13), cacheable=False)
    assert list(client.events(job["job_id"], timeout=300))[-1]["event"] \
        == "done"
    assert server.daemon.store.get(job["job_id"]).events.wakers == []
    assert len(server.daemon.store.daemon_log.wakers) == 0


def test_hangups_and_drains_release_stream_wake_callbacks():
    # workers=0 keeps the job queued, so every stream below is mid-job.
    server = BackgroundServer(workers=0, queue_depth=4, cache=None).start()
    try:
        _hang_up_then_drain(server)
    finally:
        server.stop(force=True)  # no-op after the drain


def _hang_up_then_drain(server):
    client = ServeClient(port=server.port)
    live_log = server.daemon.store.daemon_log
    job = client.submit_run(make_spec(seed=61))
    record = server.daemon.store.get(job["job_id"])

    # A client that hangs up is released at once, not at the next event.
    stream, live = client.events(job["job_id"]), client.live()
    assert next(stream)["event"] == "queued"
    assert next(live)["event"] == "hello"
    assert len(record.events.wakers) == 1 and len(live_log.wakers) == 1
    stream.close()
    live.close()
    assert eventually(lambda: not record.events.wakers
                      and len(live_log.wakers) == 0)

    # A drain hands the job off and closes the daemon log: both
    # streams end.
    ends = {}

    def follow(name, events):
        ends[name] = [event["event"] for event in events]

    followers = [
        threading.Thread(target=follow, args=item, daemon=True)
        for item in (("events", client.events(job["job_id"])),
                     ("live", client.live()))
    ]
    for follower in followers:
        follower.start()
    assert eventually(lambda: len(record.events.wakers) == 1
                      and len(live_log.wakers) == 1)
    server.stop()
    for follower in followers:
        follower.join(30)
    assert ends == {"events": ["queued", "handed_off"],
                    "live": ["hello", "handed_off"]}
    assert record.events.wakers == [] and len(live_log.wakers) == 0


def test_concurrent_streams_see_every_event_once_in_order():
    # More streaming threads than cores, against concurrent live jobs
    # whose per-epoch events are published from executor threads, with
    # the GIL switching threads every few microseconds.
    followers = 2 * (os.cpu_count() or 1) + 2
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with BackgroundServer(workers=2, queue_depth=32,
                              cache=None) as server:
            client = ServeClient(port=server.port)
            jobs = [client.submit_run(make_spec(seed=300 + i, num_ops=1500,
                                                epoch_cycles=1_000.0),
                                      live={"window": 2})
                    for i in range(4)]
            seen = {}

            def follow(i):
                job_id = jobs[i % len(jobs)]["job_id"]
                time.sleep(0.01 * i)  # join at different points
                deadline = time.monotonic() + 120
                seen[i] = (job_id,
                           list(client._events_once(job_id, deadline)))

            threads = [threading.Thread(target=follow, args=(i,),
                                        daemon=True)
                       for i in range(followers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert len(seen) == followers, "a stream never ended"
            for job_id, events in seen.values():
                log = server.daemon.store.get(job_id).events
                assert [e["seq"] for e in events] == list(range(len(log)))
                assert events[-1]["event"] == "done"
                assert sum(e["event"] == "epoch" for e in events) > 1
                assert server.daemon.store.get(job_id).events.wakers == []
    finally:
        sys.setswitchinterval(switch)


_SHUTDOWN_SCRIPT = """
import sys, threading, time
sys.path.insert(0, "src")
from tests.test_serve import make_spec
from repro.serve import BackgroundServer, ServeClient

server = BackgroundServer(workers=1, queue_depth=4, cache=None).start()
client = ServeClient(port=server.port)
job = client.submit_run(make_spec(seed=71))
record = server.daemon.store.get(job["job_id"])
ends = {}

def follow(name, events):
    try:
        ends[name] = [event["event"] for event in events][-1]
    except Exception as exc:
        ends[name] = type(exc).__name__

threads = [threading.Thread(target=follow, args=item) for item in
           (("events", client.events(job["job_id"])), ("live", client.live()))]
for thread in threads:
    thread.start()
deadline = time.monotonic() + 30
while not (record.events.wakers and server.daemon.store.daemon_log.wakers):
    assert time.monotonic() < deadline, "streams never opened"
    time.sleep(0.01)
server.stop(force=sys.argv[1] == "force")
for thread in threads:
    thread.join(60)
print(sorted(ends.items()))
"""


@pytest.mark.parametrize("mode", ["drain", "force"])
def test_stop_with_open_streams_logs_no_traceback(mode):
    # Under asyncio debug mode (-X dev), a cancel escaping a finished
    # connection handler, a loop call from the wrong thread or a task
    # left pending all print to stderr.
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _SHUTDOWN_SCRIPT, mode],
        capture_output=True, text=True, timeout=300,
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    for marker in ("Traceback", "Exception in callback", "never retrieved",
                   "was destroyed but it is pending"):
        assert marker not in proc.stderr, proc.stderr[-3000:]
    if mode == "drain":
        # A drain finishes the in-flight job before the streams close.
        assert "('events', 'done'), ('live', 'done')" in proc.stdout
