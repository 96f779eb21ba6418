"""Campaign runner robustness + the repro.api facade.

Failure-injection focus: a misbehaving job (over budget, over its
wall-clock timeout, crashing) must degrade into a structured per-job
error record while the rest of the campaign completes.
"""

import collections
import gc
import sys
import threading
import time
import weakref

import pytest

import repro
from repro import RunOptions, api
from repro.core import AppSpec, ProfileSpec
from repro.exec import CampaignJob, cxl_node_id, local_node_id, run_campaign
from repro.exec.runner import JobRecord, _drain
from repro.sim import Machine, spr_config
from repro.sim.fabric import apply_fabric
from repro.workloads import SequentialStream, build_app


def make_spec(num_ops: int = 500, seed: int = 11) -> ProfileSpec:
    workload = SequentialStream(
        name="probe", num_ops=num_ops, working_set_bytes=1 << 20, seed=seed,
    )
    app = AppSpec(
        workload=workload, core=0, membind=cxl_node_id(spr_config())
    )
    return ProfileSpec(apps=[app], epoch_cycles=20_000.0)


# -- robustness -----------------------------------------------------------


def test_budget_exceeded_yields_structured_record_and_retries():
    jobs = [
        CampaignJob(spec=make_spec(), config=spr_config(), tag="fine"),
        CampaignJob(
            spec=make_spec(num_ops=50_000, seed=12), config=spr_config(),
            tag="runaway", max_events=200,
        ),
    ]
    campaign = run_campaign(
        jobs, parallel=False, cache=False, retries=1, backoff=0.0
    )
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["fine"].status == "ok"
    assert campaign.result_for("fine") is not None
    runaway = by_tag["runaway"]
    assert runaway.status == "failed"
    assert runaway.failure == "budget_exceeded"
    assert runaway.attempts == 2          # retried once: budget is retryable
    assert runaway.events_executed == 200
    assert "budget" in runaway.error
    assert campaign.results[runaway.index] is None
    assert len(campaign.failed) == 1 and len(campaign.ok) == 1


def test_timeout_yields_structured_record_while_others_succeed():
    jobs = [
        CampaignJob(spec=make_spec(), config=spr_config(), tag="fine"),
        CampaignJob(
            spec=make_spec(num_ops=5_000_000, seed=13), config=spr_config(),
            tag="slow", timeout=0.4,
        ),
    ]
    campaign = run_campaign(
        jobs, parallel=True, workers=2, cache=False, retries=0
    )
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["fine"].status == "ok"
    slow = by_tag["slow"]
    assert slow.status == "failed"
    assert slow.failure == "timeout"
    assert slow.attempts == 1
    assert "wall-clock" in slow.error


def test_serial_campaign_rejects_a_timeout_it_cannot_enforce():
    timed_job = CampaignJob(spec=make_spec(), config=spr_config(),
                            tag="timed", timeout=30.0)
    with pytest.raises(ValueError, match="timeout"):
        run_campaign([timed_job], parallel=False, cache=False)
    plain_job = CampaignJob(spec=make_spec(), config=spr_config())
    with pytest.raises(ValueError, match="timeout"):
        run_campaign([plain_job], parallel=False, cache=False, timeout=30.0)


def test_api_run_enforces_its_timeout_on_a_pool_worker():
    spec = make_spec()
    timed = api.run(spec, options=RunOptions(timeout=60.0))
    assert api.counters(timed) == api.counters(api.run(spec))
    # ~60k ops take seconds in-process; the worker is killed at 0.5 s.
    with pytest.raises(RuntimeError, match="timeout"):
        api.run(make_spec(num_ops=60_000, seed=13),
                options=RunOptions(timeout=0.5))


def test_worker_exception_is_reported_not_raised():
    # core 5 does not exist on a 2-core machine: the worker raises during
    # installation and the campaign reports it instead of crashing.
    bad_app = AppSpec(
        workload=SequentialStream(name="bad", num_ops=100,
                                  working_set_bytes=1 << 18, seed=1),
        core=5, membind=local_node_id(spr_config()),
    )
    jobs = [
        CampaignJob(
            spec=ProfileSpec(apps=[bad_app], epoch_cycles=20_000.0),
            config=spr_config(), tag="bad",
        ),
        CampaignJob(spec=make_spec(), config=spr_config(), tag="fine"),
    ]
    campaign = run_campaign(
        jobs, parallel=False, cache=False, retries=0
    )
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["bad"].status == "failed"
    assert by_tag["bad"].failure == "error"
    assert by_tag["fine"].status == "ok"


def test_duplicate_jobs_share_one_execution(tmp_path):
    jobs = [
        CampaignJob(spec=make_spec(), config=spr_config(), tag="a"),
        CampaignJob(spec=make_spec(), config=spr_config(), tag="b"),
    ]
    assert jobs[0].key() == jobs[1].key()
    campaign = run_campaign(
        jobs, parallel=False, cache=tmp_path / "cache", retries=0
    )
    assert all(record.ok for record in campaign.jobs)
    assert campaign.results[0] is not None
    assert campaign.results[1] is not None
    # Only one entry was computed and stored.
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1


def test_campaign_summary_shape():
    campaign = run_campaign(
        [CampaignJob(spec=make_spec(), config=spr_config(), tag="one")],
        parallel=False, cache=False, retries=0,
    )
    summary = campaign.summary()
    assert summary["jobs"] == 1
    assert summary["ok"] == 1
    assert summary["cache_hits"] == 0
    assert summary["wall_time"] > 0
    assert summary["total_events"] > 0


# -- duplicate resolution under failure -----------------------------------


def _flaky_setup(marker: str, fail_times: int, machine, spec) -> None:
    """Raise on the first ``fail_times`` calls, then behave.

    The marker directory counts attempts with O_EXCL file creation, so
    the count survives the fork into campaign worker processes.
    """
    import os

    os.makedirs(marker, exist_ok=True)
    for attempt in range(fail_times):
        try:
            fd = os.open(os.path.join(marker, f"attempt{attempt}"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        raise RuntimeError(f"injected failure #{attempt}")


def _flaky_jobs(tmp_path, tags, fail_times: int):
    """Duplicate-key jobs sharing one flaky setup hook."""
    import functools

    setup = functools.partial(_flaky_setup, str(tmp_path / "marker"),
                              fail_times)
    jobs = [
        CampaignJob(spec=make_spec(), config=spr_config(), tag=tag,
                    setup=setup)
        for tag in tags
    ]
    assert len({job.key() for job in jobs}) == 1
    return jobs


def test_failed_twin_promotes_duplicate_serial(tmp_path):
    # Job "a" fails its only attempt; its duplicate "b" must be promoted
    # to a fresh run (which succeeds: the injected failure fires once).
    jobs = _flaky_jobs(tmp_path, ["a", "b"], fail_times=1)
    campaign = run_campaign(jobs, parallel=False, cache=False, retries=0)
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["a"].status == "failed"
    assert by_tag["b"].status == "ok"
    assert by_tag["b"].attempts == 1
    assert campaign.results[1] is not None


def test_pending_twin_defers_duplicate_instead_of_promoting(tmp_path):
    # With a retry budget, "a" fails once then succeeds on attempt 2.
    # The duplicate must wait for the retry and share the result - not
    # promote itself into a redundant execution.
    jobs = _flaky_jobs(tmp_path, ["a", "b"], fail_times=1)
    campaign = run_campaign(jobs, parallel=False, cache=False, retries=1,
                            backoff=0.0)
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["a"].status == "ok"
    assert by_tag["a"].attempts == 2
    assert by_tag["b"].status == "cache_hit"
    assert by_tag["b"].attempts == 0       # never executed
    assert campaign.results[1] is not None


def test_promotion_repoints_later_duplicates(tmp_path):
    # Three duplicates; the original fails terminally.  "b" gets
    # promoted, and "c" - whose dup entry pointed at the dead "a" -
    # must be re-pointed at "b" and share its result.
    jobs = _flaky_jobs(tmp_path, ["a", "b", "c"], fail_times=1)
    campaign = run_campaign(jobs, parallel=False, cache=False, retries=0)
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["a"].status == "failed"
    assert by_tag["b"].status == "ok"
    assert by_tag["c"].status == "cache_hit"
    assert campaign.results[2] is not None


def test_failed_twin_promotes_duplicate_parallel(tmp_path):
    jobs = _flaky_jobs(tmp_path, ["a", "b"], fail_times=1)
    campaign = run_campaign(jobs, parallel=True, workers=2, cache=False,
                            retries=0)
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["a"].status == "failed"
    assert by_tag["b"].status == "ok"


def test_twin_exhausting_retries_still_promotes(tmp_path):
    # "a" burns attempt 1 and its retry (failures #0 and #1); the
    # promoted "b" runs on its own budget and succeeds on the third
    # execution overall.
    jobs = _flaky_jobs(tmp_path, ["a", "b"], fail_times=2)
    campaign = run_campaign(jobs, parallel=False, cache=False, retries=1,
                            backoff=0.0)
    by_tag = {record.tag: record for record in campaign.jobs}
    assert by_tag["a"].status == "failed"
    assert by_tag["a"].attempts == 2
    assert by_tag["b"].status == "ok"


# -- the shared scheduling loop under thread contention ---------------------


def test_drain_lanes_lose_no_update_under_contention():
    # Eight lanes, a tiny switch interval, duplicates and retries: a lost
    # update to the shared queue or in-flight count would hang the
    # drain, drop a job, or run one key twice at the same time.
    keys, per_key, flaky = 30, 4, 5
    jobs = list(range(keys * per_key))
    records = [JobRecord(index=i, tag=f"j{i}", key=f"k{i % keys}")
               for i in jobs]
    pending = collections.deque(
        ("run", i, 0) if i < keys else ("dup", i, i % keys) for i in jobs
    )
    guard = threading.Lock()
    in_flight, runs, overlaps = set(), collections.Counter(), []

    def start(i):
        key = records[i].key
        with guard:
            if key in in_flight:
                overlaps.append(key)
            in_flight.add(key)
            runs[key] += 1
            first = runs[key] == 1
        time.sleep(0.001)
        with guard:
            in_flight.discard(key)
        return {"ok": not (i % flaky == 0 and first)}

    def settle(i, outcome):
        if outcome["ok"]:
            records[i].status = "ok"
        return not outcome["ok"]  # a flaky job retries once

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        drain = threading.Thread(
            target=_drain, daemon=True,
            args=(jobs, records, [None] * len(jobs), pending, start, settle,
                  0.0, 8),
        )
        drain.start()
        drain.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not drain.is_alive()
    assert not overlaps and not pending
    assert sum(runs.values()) == keys + keys // flaky
    for record in records[:keys]:
        assert record.status == "ok"
        assert record.attempts == (2 if record.index % flaky == 0 else 1)
    for record in records[keys:]:
        assert record.status == "cache_hit" and record.attempts == 0


def test_drain_reraises_a_lane_failure():
    records = [JobRecord(index=i, tag=f"j{i}", key=f"k{i}") for i in range(4)]
    pending = collections.deque(("run", i, 0) for i in range(4))

    def start(i):
        raise RuntimeError("lane died")

    with pytest.raises(RuntimeError, match="lane died"):
        _drain(list(range(4)), records, [None] * 4, pending, start,
               lambda i, outcome: False, 0.0, 2)


def test_a_campaign_job_frees_its_machine_by_refcount():
    # With the collector off, only refcounting can free the machine the
    # job built: it must be gone when the campaign returns, leaving no
    # cyclic garbage behind, while the result it produced stays whole.
    # A pooled fabric adds switch ports, fabric endpoints and injectors.
    for config in (spr_config(), apply_fabric(spr_config(), "pooled")):
        machines = []
        job = CampaignJob(
            spec=make_spec(), config=config,
            setup=lambda machine, spec: machines.append(weakref.ref(machine)),
        )
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            campaign = run_campaign([job], parallel=False, cache=False)
            assert machines and machines[0]() is None
            gc.collect()
            leaked = collections.Counter(type(o).__name__ for o in gc.garbage)
            assert not leaked, leaked
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert campaign.jobs[0].ok
        assert api.counters(campaign.results[0])


def test_a_caller_owned_machine_stays_readable():
    machine = Machine(spr_config())
    result = api.run(make_spec(), machine=machine)
    assert machine.cha.writeback_sink is not None
    assert machine.snapshot_counters()
    assert api.counters(result)


# -- the api facade -------------------------------------------------------


def test_api_run_returns_profile_result():
    result = api.run(make_spec(), options=RunOptions(cache=False))
    assert result.num_epochs >= 1
    totals = api.counters(result)
    assert totals and all(isinstance(k, tuple) for k in totals)


def test_api_run_rejects_machine_plus_cache():
    config = spr_config()
    with pytest.raises(ValueError):
        api.run(make_spec(), machine=Machine(config),
                options=RunOptions(cache=True))


def test_api_run_raises_on_failure():
    with pytest.raises(RuntimeError):
        api.run(make_spec(num_ops=50_000),
                options=RunOptions(cache=False, max_events=100))


def test_api_run_many_maps_results_to_specs(tmp_path, monkeypatch):
    monkeypatch.setenv("PATHFINDER_CACHE_DIR", str(tmp_path / "cache"))
    # The middle spec does different work (more ops), the outer two are
    # byte-identical duplicates.
    specs = [make_spec(), make_spec(num_ops=700), make_spec()]
    campaign = api.run_many(
        specs, parallel=False, tags=["a", "b", "a-again"]
    )
    assert [record.tag for record in campaign.jobs] == ["a", "b", "a-again"]
    assert all(record.ok for record in campaign.jobs)
    # Duplicate specs share one execution but both get a result.
    assert campaign.results[0] is not None
    assert campaign.results[2] is not None
    assert api.counters(campaign.results[0]) == api.counters(
        campaign.results[2]
    )
    assert api.counters(campaign.results[0]) != api.counters(
        campaign.results[1]
    )


def test_api_compare_smoke():
    local_spec = ProfileSpec(
        apps=[AppSpec(
            workload=build_app("541.leela_r", num_ops=500, seed=3),
            core=0, membind=local_node_id(spr_config()),
        )],
        epoch_cycles=20_000.0,
    )
    cxl_spec = ProfileSpec(
        apps=[AppSpec(
            workload=build_app("541.leela_r", num_ops=500, seed=3),
            core=0, membind=cxl_node_id(spr_config()),
        )],
        epoch_cycles=20_000.0,
    )
    baseline = api.run(local_spec, options=RunOptions(cache=False))
    treatment = api.run(cxl_spec, options=RunOptions(cache=False))
    diff = api.compare(baseline, treatment)
    assert diff is not None


def test_facade_is_reexported_from_package_root():
    for name in ("run", "run_many", "compare", "counters"):
        assert getattr(repro, name) is getattr(api, name)
