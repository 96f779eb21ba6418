"""Warm worker pool: framing, leasing, recycling, kill-respawn, typed failure.

The pool is the only way a job runs outside the calling process, so it
must keep every robustness property of a process-per-job design -
timeouts kill the worker, crashes and spawn failures are typed outcomes,
a misbehaving job or callback never leaks its leased worker - while
actually reusing workers across jobs (the whole point).
"""

import errno
import os
import threading

import pytest

from repro.core.spec import AppSpec, ProfileSpec
from repro.exec.pool import (
    PoolProtocolError,
    WorkerPool,
    _pool_context,
    _recv_frame,
    _send_frame,
)
from repro.exec.runner import CampaignJob, run_campaign
from repro.sim.machine import Machine
from repro.sim.topology import spr_config
from repro.workloads import SequentialStream

CONFIG = spr_config(num_cores=2)


def tiny_spec(seed=1, num_ops=200, max_epochs=50):
    workload = SequentialStream(num_ops=num_ops, working_set_bytes=1 << 20,
                                gap=2.0, seed=seed)
    machine = Machine(CONFIG)
    return ProfileSpec(
        apps=[AppSpec(workload=workload, core=0,
                      membind=machine.cxl_node.node_id)],
        epoch_cycles=20_000.0, max_epochs=max_epochs,
    )


def endless_spec():
    return tiny_spec(seed=7, num_ops=2_000_000, max_epochs=1_000_000)


# -- framing -----------------------------------------------------------------


class _LoopbackConn:
    def __init__(self):
        self.sent = []

    def send_bytes(self, blob):
        self.sent.append(blob)

    def recv_bytes(self):
        return self.sent.pop(0)


def test_frame_round_trip():
    conn = _LoopbackConn()
    message = {"op": "job", "payload": list(range(100))}
    _send_frame(conn, message)
    assert _recv_frame(conn) == message


def test_truncated_frame_is_a_protocol_error():
    conn = _LoopbackConn()
    _send_frame(conn, {"op": "job", "data": "x" * 1000})
    conn.sent[0] = conn.sent[0][:-17]  # worker killed mid-write
    with pytest.raises(PoolProtocolError):
        _recv_frame(conn)


def test_short_frame_is_a_protocol_error():
    conn = _LoopbackConn()
    conn.sent.append(b"\x01\x02")
    with pytest.raises(PoolProtocolError):
        _recv_frame(conn)


# -- blocking lease API ------------------------------------------------------


def test_run_job_reuses_one_worker():
    with WorkerPool(workers=1) as pool:
        for seed in range(3):
            outcome = pool.run_job(tiny_spec(seed), CONFIG, timeout=120)
            assert outcome["ok"], outcome
            assert outcome["document"]["epochs"]
        assert pool.spawned == 1  # all three jobs rode the same process


def test_recycling_after_job_quota():
    with WorkerPool(workers=1, max_jobs_per_worker=2) as pool:
        for seed in range(4):
            outcome = pool.run_job(tiny_spec(seed), CONFIG, timeout=120)
            assert outcome["ok"], outcome
        assert pool.recycled == 2
        assert pool.spawned >= 2


def test_timeout_kills_and_pool_respawns():
    with WorkerPool(workers=1) as pool:
        outcome = pool.run_job(endless_spec(), CONFIG, timeout=0.5)
        assert not outcome["ok"]
        assert outcome["kind"] == "timeout"
        # The stuck worker was killed; the pool must still serve jobs.
        outcome = pool.run_job(tiny_spec(9), CONFIG, timeout=120)
        assert outcome["ok"], outcome
        assert pool.spawned == 2


def test_budget_exceeded_is_a_typed_failure():
    with WorkerPool(workers=1) as pool:
        outcome = pool.run_job(endless_spec(), CONFIG, max_events=5_000,
                               timeout=120)
        assert not outcome["ok"]
        assert outcome["kind"] == "budget_exceeded"
        assert outcome["events_executed"] >= 5_000
        # A budget blow-up is the job's fault, not the worker's: the
        # worker survives and serves the next job.
        assert pool.run_job(tiny_spec(3), CONFIG, timeout=120)["ok"]
        assert pool.spawned == 1


@pytest.fixture
def unstartable_workers(monkeypatch):
    """Every pool worker's ``Process.start`` fails as a pid limit would."""

    def start(self):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(_pool_context(None).Process, "start", start)


def test_spawn_failure_counts_and_raises(unstartable_workers):
    # A worker that cannot start no longer raises out of run_job: the
    # job fails typed, and the failure is counted and reported.
    events = []
    with WorkerPool(workers=1, metrics_hook=events.append) as pool:
        outcome = pool.run_job(tiny_spec(1), CONFIG)
        assert not outcome["ok"]
        assert outcome["kind"] == "spawn_failed"
        assert "parallel=False" in outcome["error"]
        assert outcome["wall_time"] >= 0
        assert pool.spawn_failures == 1 and pool.spawned == 0
    assert events == ["spawn_failure"]


def test_concurrent_run_job_callers_each_lease_a_worker():
    outcomes = {}
    with WorkerPool(workers=2) as pool:

        def call(seed):
            outcomes[seed] = pool.run_job(tiny_spec(seed), CONFIG,
                                          timeout=120)

        threads = [threading.Thread(target=call, args=(seed,))
                   for seed in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert all(outcome["ok"] for outcome in outcomes.values()), outcomes
        assert sorted(outcomes) == [1, 2]
        assert outcomes[1]["wall_time"] > 0
        assert pool.spawned == 2


def test_unpicklable_job_fails_typed_without_leasing_a_worker():
    with WorkerPool(workers=1) as pool:
        outcome = pool.run_job(tiny_spec(1), CONFIG,
                               setup=lambda machine, spec: None)
        assert not outcome["ok"]
        assert outcome["kind"] == "error"
        assert "cannot be sent" in outcome["error"]
        assert pool.spawned == 0
        # The one worker is free for the next job.
        assert pool.run_job(tiny_spec(2), CONFIG, timeout=120)["ok"]
        assert pool.spawned == 1


def test_raising_progress_callback_keeps_the_lease_whole():
    calls = []

    def explode(digest):
        calls.append(digest)
        raise RuntimeError("dashboard went away")

    with WorkerPool(workers=1) as pool:
        first = pool.run_job(tiny_spec(1, num_ops=3000), CONFIG,
                             timeout=120, live=True, on_progress=explode)
        assert first["ok"], first
        # Every epoch's digest still arrived after the first one raised.
        assert first["num_epochs"] > 1
        assert len(calls) == first["num_epochs"]
        second = pool.run_job(tiny_spec(2), CONFIG, timeout=120)
        assert second["ok"], second
        assert pool.spawned == 1


# -- campaign integration ----------------------------------------------------


def test_campaign_runs_on_the_warm_pool():
    jobs = [CampaignJob(spec=tiny_spec(seed), config=CONFIG, tag=f"j{seed}")
            for seed in range(5)]
    campaign = run_campaign(jobs, workers=2, cache=False, parallel=True)
    assert all(job.ok for job in campaign.jobs), \
        [j.as_dict() for j in campaign.failed]
    summary = campaign.summary()
    assert summary["spawn_failures"] == 0
    assert "workers_recycled" in summary


def test_campaign_shares_an_external_pool():
    with WorkerPool(workers=2) as pool:
        for round_number in range(2):
            jobs = [CampaignJob(spec=tiny_spec(10 * round_number + s),
                                config=CONFIG, tag=f"r{round_number}j{s}")
                    for s in range(3)]
            campaign = run_campaign(jobs, workers=2, cache=False,
                                    parallel=True, pool=pool)
            assert all(job.ok for job in campaign.jobs)
        # Both campaigns rode the same two processes.
        assert pool.spawned <= 2


def test_campaign_records_an_unpicklable_job_and_runs_the_rest():
    jobs = [
        CampaignJob(spec=tiny_spec(1), config=CONFIG, tag="lambda",
                    setup=lambda machine, spec: None),
        CampaignJob(spec=tiny_spec(2), config=CONFIG, tag="plain"),
    ]
    campaign = run_campaign(jobs, workers=2, cache=False, parallel=True,
                            retries=0)
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["lambda"].status == "failed"
    assert by_tag["lambda"].failure == "error"
    assert by_tag["plain"].status == "ok"


#: Pids the setup hook below ran in; only ever filled in-process.
_SETUP_RAN_IN = []


def _record_setup_pid(machine, spec):
    _SETUP_RAN_IN.append(os.getpid())


def test_campaign_spawn_failure_fails_typed_never_inline(unstartable_workers):
    _SETUP_RAN_IN.clear()
    jobs = [CampaignJob(spec=tiny_spec(seed), config=CONFIG, tag=f"j{seed}",
                        setup=_record_setup_pid)
            for seed in (1, 2)]
    campaign = run_campaign(jobs, workers=2, cache=False, parallel=True,
                            retries=1, backoff=0.0)
    for record in campaign.jobs:
        assert record.status == "failed"
        assert record.failure == "spawn_failed"
        assert record.attempts == 2  # retries + 1
    assert campaign.summary()["spawn_failures"] > 0
    assert _SETUP_RAN_IN == []  # no job fell back to running in this process
