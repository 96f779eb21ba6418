"""Fleet primitives: hash ring, circuit breaker, event mux, client waiting.

Pure in-process tests - no sockets, no daemons.  The live fleet (real
members, real kills) is exercised by ``test_fleet.py``.
"""

import http.client
import socket
import threading
import time

import pytest

from repro.fleet import CircuitBreaker, EventMux, HashRing
from repro.fleet.health import CLOSED, HALF_OPEN, OPEN
from repro.serve import ServeClient, parse_retry_after


# -- consistent hashing ---------------------------------------------------


def test_ring_routes_deterministically():
    ring = HashRing(["m1", "m2", "m3"])
    keys = [f"key{i}" for i in range(200)]
    first = [ring.primary(k) for k in keys]
    assert first == [ring.primary(k) for k in keys]
    # With 200 keys and 64 vnodes each, every member owns some share.
    assert set(first) == {"m1", "m2", "m3"}


def test_ring_successors_are_distinct_and_start_at_primary():
    ring = HashRing(["m1", "m2", "m3"])
    chain = list(ring.successors("somekey"))
    assert chain[0] == ring.primary("somekey")
    assert sorted(chain) == ["m1", "m2", "m3"]


def test_removing_a_member_only_remaps_its_own_keys():
    ring = HashRing(["m1", "m2", "m3"])
    keys = [f"key{i}" for i in range(300)]
    before = {k: ring.primary(k) for k in keys}
    ring.remove("m2")
    for key, owner in before.items():
        if owner != "m2":
            # The consistent-hashing guarantee: survivors keep their keys.
            assert ring.primary(key) == owner
        else:
            assert ring.primary(key) in ("m1", "m3")


def test_rejoining_member_reclaims_its_keys():
    ring = HashRing(["m1", "m2", "m3"])
    keys = [f"key{i}" for i in range(300)]
    before = {k: ring.primary(k) for k in keys}
    ring.remove("m2")
    ring.add("m2")
    assert {k: ring.primary(k) for k in keys} == before


def test_empty_ring():
    ring = HashRing()
    assert list(ring.successors("x")) == []
    with pytest.raises(LookupError):
        ring.primary("x")


# -- circuit breaker ------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_breaker_opens_after_consecutive_failures_only():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0,
                             clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()          # resets the consecutive count
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN and not breaker.allow()


def test_breaker_half_open_single_trial_then_recovery():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                             clock=clock)
    breaker.record_failure()
    assert not breaker.allow()
    clock.now += 10.0
    assert breaker.state == HALF_OPEN
    assert breaker.allow()            # the one trial
    assert not breaker.allow()        # no second concurrent trial
    breaker.record_success()
    assert breaker.state == CLOSED and breaker.allow()


def test_breaker_half_open_failure_reopens_and_restarts_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                             clock=clock)
    breaker.record_failure()
    clock.now += 10.0
    assert breaker.allow()
    breaker.record_failure()          # trial failed
    assert breaker.state == OPEN and not breaker.allow()
    clock.now += 9.0
    assert not breaker.allow()        # cooldown restarted, not resumed
    clock.now += 1.0
    assert breaker.allow()


# -- event mux ------------------------------------------------------------


def test_mux_merges_concurrent_producers_completely():
    mux = EventMux()
    n_producers, per_producer = 8, 50

    def produce(p):
        try:
            for i in range(per_producer):
                mux.publish({"p": p, "i": i})
        finally:
            mux.detach()

    for _ in range(n_producers):
        mux.attach()
    threads = [threading.Thread(target=produce, args=(p,))
               for p in range(n_producers)]
    for t in threads:
        t.start()
    events = list(mux.drain())
    for t in threads:
        t.join()
    assert len(events) == n_producers * per_producer
    # Per-producer order is preserved through the merge.
    for p in range(n_producers):
        seq = [e["i"] for e in events if e["p"] == p]
        assert seq == list(range(per_producer))
    assert mux.open_producers == 0


def test_mux_drain_timeout_stops_without_error():
    mux = EventMux()
    mux.attach()                      # producer never detaches
    mux.publish({"x": 1})
    events = list(mux.drain(timeout=0.05))
    assert events == [{"x": 1}]


# -- client backoff helpers ------------------------------------------------


def test_parse_retry_after_delta_seconds():
    assert parse_retry_after("7") == 7
    assert parse_retry_after(" 3 ") == 3
    assert parse_retry_after("-5") == 0


def test_parse_retry_after_http_date():
    from datetime import datetime, timedelta, timezone
    from email.utils import format_datetime

    future = datetime.now(timezone.utc) + timedelta(seconds=90)
    delay = parse_retry_after(format_datetime(future, usegmt=True))
    assert delay is not None and 85 <= delay <= 95
    past = datetime.now(timezone.utc) - timedelta(seconds=90)
    assert parse_retry_after(format_datetime(past, usegmt=True)) is None


def test_parse_retry_after_garbage_degrades_to_none():
    # The satellite fix: an HTTP-date (or garbage) must not raise the
    # ValueError the old int() parse did.
    assert parse_retry_after("soon") is None
    assert parse_retry_after("") is None
    assert parse_retry_after(None) is None


def _waiting_client(monkeypatch, states, streams):
    """A client whose status answers and event streams are scripted.

    ``states`` are the successive ``state`` answers of ``job()``; each
    item of ``streams`` is one ``events()`` connection: the event names
    it yields, then optionally an exception that ends it.
    """
    client = ServeClient(port=1)
    states, streams = iter(states), iter(streams)
    follows = []

    def events(job_id, timeout):
        follows.append(timeout)
        script = next(streams)
        for seq, name in enumerate(script):
            if isinstance(name, BaseException):
                raise name
            yield {"seq": seq, "job_id": job_id, "event": name}

    monkeypatch.setattr(
        client, "job",
        lambda job_id: {"state": next(states), "job_id": job_id},
    )
    monkeypatch.setattr(client, "events", events)
    return client, follows


def _no_sleeping(monkeypatch):
    def sleep(seconds):
        raise AssertionError(f"wait() slept {seconds}s instead of streaming")

    monkeypatch.setattr("repro.serve.client.time.sleep", sleep)


def test_wait_follows_the_event_stream_to_done(monkeypatch):
    _no_sleeping(monkeypatch)
    client, follows = _waiting_client(
        monkeypatch, ["queued", "done"],
        [["queued", "started", "attempt", "done"]],
    )
    assert client.wait("j1", timeout=60)["state"] == "done"
    assert len(follows) == 1 and 0 < follows[0] <= 60


def test_wait_returns_a_failed_job(monkeypatch):
    _no_sleeping(monkeypatch)
    client, follows = _waiting_client(
        monkeypatch, ["running", "failed"], [["started", "failed"]],
    )
    assert client.wait("j1", timeout=60)["state"] == "failed"
    assert len(follows) == 1


@pytest.mark.parametrize("first_stream", [
    ["queued", "handed_off"],
    ["queued", http.client.IncompleteRead(b"")],
], ids=["ends-cleanly", "connection-dropped"])
def test_wait_refollows_a_stream_that_ends_without_a_terminal_event(
        monkeypatch, first_stream):
    _no_sleeping(monkeypatch)
    client, follows = _waiting_client(
        monkeypatch, ["queued", "queued", "done"],
        [first_stream, ["started", "done"]],
    )
    assert client.wait("j1", timeout=60)["state"] == "done"
    assert len(follows) == 2


def test_wait_raises_timeout_error_at_its_deadline(monkeypatch):
    client = ServeClient(port=1)
    follows = []

    def silent_stream(job_id, timeout):
        # A job that never progresses: the socket read times out.
        follows.append(timeout)
        time.sleep(timeout)
        raise socket.timeout("timed out")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(client, "job",
                        lambda job_id: {"state": "running", "job_id": job_id})
    monkeypatch.setattr(client, "events", silent_stream)
    began = time.monotonic()
    with pytest.raises(TimeoutError, match="still running"):
        client.wait("j1", timeout=0.2)
    assert time.monotonic() - began < 5.0
    assert follows and all(t <= 0.2 for t in follows)
