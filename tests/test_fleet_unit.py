"""Fleet primitives: rendezvous routing, down marks, event mux, client waiting.

Pure in-process tests - no sockets, no daemons.  The live fleet (real
members, real kills) is exercised by ``test_fleet.py``.  The routing
tests keep the properties of the consistent-hash ring the rendezvous
ranking replaced, under their old names.
"""

import http.client
import socket
import threading
import time

import pytest

from repro.core import AppSpec, ProfileSpec
from repro.exec import CampaignJob, cxl_node_id
from repro.fleet import EventMux, FleetCoordinator, FleetMember
from repro.fleet.coordinator import DOWN_S
from repro.serve import ServeClient, parse_retry_after
from repro.sim import spr_config
from repro.workloads import build_app

MEMBERS = ["m:1", "m:2", "m:3"]
KEYS = [f"key{i}" for i in range(300)]


def primary(fleet, key):
    return fleet.route(key).member_id


def ranking(fleet, key):
    """The failover order: route again, excluding every member tried."""
    chain = []
    while (member := fleet.route(key, exclude=chain)) is not None:
        chain.append(member.member_id)
    return chain


# -- rendezvous routing ---------------------------------------------------


def test_ring_routes_deterministically():
    fleet = FleetCoordinator(MEMBERS)
    first = [primary(fleet, k) for k in KEYS]
    assert first == [primary(fleet, k) for k in KEYS]
    # The ranking depends on the member set, not on insertion order.
    rebuilt = FleetCoordinator(list(reversed(MEMBERS)))
    assert first == [primary(rebuilt, k) for k in KEYS]
    assert set(first) == set(MEMBERS)


def test_ring_successors_are_distinct_and_start_at_primary():
    fleet = FleetCoordinator(MEMBERS)
    for key in KEYS[:20]:
        chain = ranking(fleet, key)
        assert chain[0] == primary(fleet, key)
        assert sorted(chain) == MEMBERS


def test_removing_a_member_only_remaps_its_own_keys():
    fleet = FleetCoordinator(MEMBERS)
    before = {k: ranking(fleet, k) for k in KEYS}
    survivors = FleetCoordinator(["m:1", "m:3"])
    for key, chain in before.items():
        if chain[0] != "m:2":
            assert primary(survivors, key) == chain[0]
        else:
            # A removed member's keys go to their failover member, which
            # is where a failover during the outage computed them.
            assert primary(survivors, key) == chain[1]


def test_rejoining_member_reclaims_its_keys():
    before = {k: primary(FleetCoordinator(MEMBERS), k) for k in KEYS}
    fleet = FleetCoordinator(["m:1", "m:3"])
    fleet.add_member("m:2")
    assert {k: primary(fleet, k) for k in KEYS} == before


def test_empty_ring():
    assert FleetCoordinator().route("x") is None


# -- the down mark ---------------------------------------------------------


@pytest.fixture()
def clock(monkeypatch):
    now = [1000.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    return now


def test_route_skips_a_down_member_until_the_mark_lapses(clock):
    fleet = FleetCoordinator(MEMBERS)
    first, second, _ = ranking(fleet, "k")
    fleet.member(first).mark_down()
    assert fleet.member(first).down
    assert primary(fleet, "k") == second
    clock[0] += DOWN_S - 0.5
    assert primary(fleet, "k") == second
    clock[0] += 0.5
    assert not fleet.member(first).down
    assert primary(fleet, "k") == first


def test_success_clears_the_down_mark(clock):
    fleet = FleetCoordinator(MEMBERS)
    first = primary(fleet, "k")
    fleet.member(first).mark_down()
    fleet.member(first).mark_up()
    assert primary(fleet, "k") == first


def test_every_member_down_falls_back_to_the_first_candidate(clock):
    fleet = FleetCoordinator(MEMBERS)
    first, second, _ = ranking(fleet, "k")
    for member in fleet.members():
        member.mark_down()
    assert primary(fleet, "k") == first
    assert fleet.route("k", exclude=[first]).member_id == second


class _ScriptedClient:
    """A member client whose submit refuses or answers a born-failed job."""

    def __init__(self, refuse):
        self.refuse = refuse
        self.submits = 0

    def submit_run(self, spec, config, **kwargs):
        self.submits += 1
        if self.refuse:
            raise ConnectionRefusedError("member is dead")
        return {"job_id": "j1", "state": "failed", "failure": "timeout",
                "error": "job timed out", "attempts": 1}


def test_failed_submit_marks_the_member_down_and_a_success_clears_it(clock):
    config = spr_config()
    spec = ProfileSpec(
        apps=[AppSpec(workload=build_app("541.leela_r", num_ops=100, seed=1),
                      core=0, membind=cxl_node_id(config))],
        epoch_cycles=20_000.0,
    )
    job = CampaignJob(spec=spec, config=config, tag="j")
    probe = FleetCoordinator(["m:1", "m:2"])
    first, second = ranking(probe, job.key())
    dead, alive = _ScriptedClient(refuse=True), _ScriptedClient(refuse=False)
    fleet = FleetCoordinator([
        FleetMember(member_id=first, host="m", port=0, client=dead),
        FleetMember(member_id=second, host="m", port=0, client=alive),
    ])
    fleet.member(second).mark_down()     # stale mark from an old failure

    record = fleet.run_many([job]).jobs[0]
    # The dead primary was tried once, marked down, and the job failed
    # over; the stale mark on the second member could not stop the
    # fallback, and its successful submit cleared the mark.
    assert dead.submits == 1 and alive.submits == 1
    assert fleet.member(first).down
    assert not fleet.member(second).down
    assert record.failovers == 1 and record.member_id == second
    # A job that fails on a healthy member is a job outcome, not a
    # member outcome.
    assert record.failure == "timeout"
    clock[0] += DOWN_S
    assert primary(fleet, job.key()) == first


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
