"""repro.serve over persistent connections.

A JSON answer keeps its connection open for the client's next request;
the NDJSON streams and a drain close theirs.  ``connections_accepted``
in ``/metricsz`` counts the connections the daemon accepted, so these
tests read from it how many connections a client dialled.
"""

import socket
import threading
import time

import pytest

import repro.serve.daemon as daemon_module
from repro.serve import BackgroundServer, ServeClient
from repro.serve.client import MAX_IDLE_CONNECTIONS
from tests.test_serve import eventually, make_spec


def accepted(client: ServeClient) -> int:
    return client.metrics()["counters"]["connections_accepted"]


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send one raw request; read until the daemon closes the socket.

    The read times out well before the daemon's 30 s idle timeout, so a
    connection the daemon should have closed fails the test.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def test_one_client_reuses_one_connection():
    with BackgroundServer(workers=0, queue_depth=4, cache=None) as server:
        client = ServeClient(port=server.port)
        for _ in range(10):
            assert client.health()["status"] == "ok"
        job = client.submit_run(make_spec(seed=401))
        assert client.job(job["job_id"])["state"] == "queued"
        metrics = client.metrics()
        assert metrics["counters"]["connections_accepted"] == 1
        # Latencies are per request, not per connection.
        assert metrics["endpoint_latency_ms"]["GET /healthz"]["count"] == 10
        client.close()
        server.stop(force=True)


def test_idle_closed_connection_is_redialled_once(monkeypatch):
    monkeypatch.setattr(daemon_module, "REQUEST_READ_TIMEOUT_S", 0.5)
    specs = [make_spec(seed=411), make_spec(seed=412), make_spec(seed=411)]
    with BackgroundServer(workers=0, queue_depth=4, cache=None) as server:
        with ServeClient(port=server.port) as client:
            first = client.submit_run(specs[0])
            time.sleep(1.2)  # the daemon closes the idle connection
            assert client.health()["status"] == "ok"  # a GET, redialled
            time.sleep(1.2)
            second = client.submit_run(specs[1])  # a POST, redialled
            again = client.submit_run(specs[2])
            assert again["job_id"] == first["job_id"]
            jobs = client.jobs()
            assert sorted(job["job_id"] for job in jobs) == sorted(
                [first["job_id"], second["job_id"]])
            # The first dial, then one redial after each idle close.
            assert accepted(client) == 3
        server.stop(force=True)


def test_streams_close_their_connection_and_the_client_carries_on():
    with BackgroundServer(workers=1, queue_depth=4, cache=None) as server:
        client = ServeClient(port=server.port)
        job = client.submit_run(make_spec(seed=421, num_ops=200))
        events = list(client.events(job["job_id"], timeout=120))
        assert events[-1]["event"] == "done"
        assert client.result(job["job_id"])["job_id"] == job["job_id"]

        # A request that asks to close its connection gets that.
        reply = raw_exchange(server.port, b"GET /healthz HTTP/1.1\r\n"
                             b"Host: test\r\nConnection: close\r\n\r\n")
        assert b"Connection: close" in reply and b'"ok"' in reply

        # The daemon ends the connection of each stream it sends.
        reply = raw_exchange(server.port, (
            f"GET /v1/jobs/{job['job_id']}/events HTTP/1.1\r\n"
            "Host: test\r\n\r\n").encode())
        assert b"Connection: close" in reply
        assert reply.endswith(b"0\r\n\r\n")

        replies, lived = [], []
        followers = [
            threading.Thread(target=lambda: replies.append(raw_exchange(
                server.port,
                b"GET /v1/live?max_events=1 HTTP/1.1\r\nHost: test\r\n\r\n"
            ))),
            threading.Thread(target=lambda: lived.extend(
                client.live(max_events=1, timeout=60))),
        ]
        for follower in followers:
            follower.start()
        assert eventually(
            lambda: len(server.daemon.store.daemon_log.wakers) == 2)
        other = client.submit_run(make_spec(seed=422, num_ops=200))
        for follower in followers:
            follower.join(60)
        assert b"Connection: close" in replies[0]
        assert replies[0].endswith(b"0\r\n\r\n")
        assert [event["event"] for event in lived] == ["hello", "queued"]

        client.wait(other["job_id"], timeout=120)
        assert client.result(other["job_id"])["job_id"] == other["job_id"]
        client.close()


def test_drain_closes_idle_connections_at_once():
    server = BackgroundServer(workers=1, queue_depth=4, cache=None).start()
    clients = [ServeClient(port=server.port) for _ in range(3)]
    job = clients[0].submit_run(make_spec(seed=451, num_ops=60_000))
    assert eventually(lambda: server.daemon._in_flight == 1, timeout=60)
    for client in clients[1:]:
        client.health()
    assert len(server.daemon._connections) == 3
    clients[0].shutdown()
    # Closed while the drain still owes the running job, not at its end.
    assert eventually(lambda: not server.daemon._connections, timeout=1.0)
    assert not server.daemon._finished.is_set()
    server.stop()
    assert server.daemon.store.get(job["job_id"]).state == "done"

    for client in clients:
        client.close()

    # With nothing owed, a drain does not wait for idle connections.
    server = BackgroundServer(workers=1, queue_depth=4, cache=None).start()
    clients = [ServeClient(port=server.port) for _ in range(3)]
    for client in clients:
        client.health()
    began = time.monotonic()
    server.stop()
    assert time.monotonic() - began < 1.0
    for client in clients:
        client.close()


def test_threads_sharing_a_client_get_their_own_answers():
    with BackgroundServer(workers=0, queue_depth=16, cache=None) as server:
        client = ServeClient(port=server.port)
        ids = [client.submit_run(make_spec(seed=430 + i))["job_id"]
               for i in range(8)]
        wrong = []

        def poll(job_id):
            try:
                for _ in range(25):
                    answer = client.job(job_id)
                    if answer["job_id"] != job_id:
                        wrong.append((job_id, answer["job_id"]))
            except Exception as exc:  # noqa: BLE001 - reported below
                wrong.append((job_id, repr(exc)))

        threads = [threading.Thread(target=poll, args=(job_id,))
                   for job_id in ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert wrong == []
        assert len(client._idle) <= MAX_IDLE_CONNECTIONS
        client.close()
        server.stop(force=True)


@pytest.mark.parametrize("cached", [False, True])
def test_only_a_queued_job_builds_its_journal_document(tmp_path, monkeypatch,
                                                       cached):
    calls = []
    build = daemon_module.config_to_document

    def counting(config):
        calls.append(config)
        return build(config)

    with BackgroundServer(workers=1, queue_depth=4,
                          cache=str(tmp_path / "cache"),
                          journal_dir=str(tmp_path / "journal")) as server:
        client = ServeClient(port=server.port)
        spec = make_spec(seed=441, num_ops=200)
        if cached:
            client.wait(client.submit_run(spec)["job_id"], timeout=120)
        monkeypatch.setattr(daemon_module, "config_to_document", counting)
        job = client.submit_run(make_spec(seed=441, num_ops=200))
        assert job["cache_hit"] is cached
        client.wait(job["job_id"], timeout=120)
        client.close()
    assert len(calls) == (0 if cached else 1)
