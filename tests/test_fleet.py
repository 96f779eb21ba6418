"""repro.fleet end to end: real daemons, real sockets, real kills.

The contract under test is the ISSUE's acceptance bar: a 3-member
fleet campaign completes every job correctly after one member is
killed mid-campaign, and resubmitting the same campaign achieves
>= 90% cache-hit locality (jobs landing on the member that cached
them).
"""

import pytest

from repro import api
from repro.core import AppSpec, ProfileSpec
from repro.exec import CampaignJob, cxl_node_id, local_node_id
from repro.fleet import FleetCoordinator, LocalFleet, NoMemberAvailable
from repro.sim import spr_config
from repro.workloads import build_app


def make_job(seed: int, num_ops: int = 600, node: str = "cxl") -> CampaignJob:
    config = spr_config()
    node_id = cxl_node_id(config) if node == "cxl" else local_node_id(config)
    workload = build_app("541.leela_r", num_ops=num_ops, seed=seed)
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=node_id)],
        epoch_cycles=20_000.0,
    )
    return CampaignJob(spec=spec, config=config, tag=f"seed{seed}@{node}")


@pytest.fixture()
def fleet(tmp_path):
    with LocalFleet(size=3, workers=1,
                    cache_root=str(tmp_path / "fleet")) as local:
        yield local


# -- routing + locality ---------------------------------------------------


def test_campaign_shards_across_members_and_resubmits_locally(fleet):
    jobs = [make_job(seed) for seed in range(8)]
    result = fleet.coordinator.run_many(jobs)
    assert result.summary()["failed"] == 0
    assert len(result.jobs) == 8
    # 8 distinct keys over 3 members: routing should use more than one.
    assert len(result.by_member()) >= 2
    assert result.locality == 0.0          # cold caches: all computed

    # Same jobs again: rendezvous hashing must land every job on the
    # member that cached it - the whole point of affinity routing.
    again = fleet.coordinator.run_many([make_job(seed) for seed in range(8)])
    assert again.summary()["failed"] == 0
    assert again.locality >= 0.9
    for record in again.jobs:
        assert record.cache_hit
        assert record.routed_to == record.member_id


def test_fleet_results_match_in_process_run(fleet):
    job = make_job(seed=41)
    result = fleet.coordinator.run_many([job])
    assert result.summary()["failed"] == 0
    reference = api.run(make_job(seed=41).spec, config=spr_config(),
                        options=api.RunOptions(cache=False))
    assert api.counters(result.results[0]) == api.counters(reference)


def test_merged_stream_reports_every_job(fleet):
    jobs = [make_job(seed) for seed in range(30, 34)]
    campaign = fleet.coordinator.shard_campaign(jobs)
    events = list(campaign.events())
    result = campaign.wait()
    assert result.summary()["failed"] == 0
    routed = {e["tag"] for e in events if e["event"] == "routed"}
    done = {e["tag"] for e in events if e["event"] == "job_done"}
    assert routed == done == {job.tag for job in jobs}


# -- failover -------------------------------------------------------------


def test_member_killed_mid_campaign_loses_no_jobs(fleet):
    jobs = [make_job(seed, num_ops=3000) for seed in range(10, 18)]
    campaign = fleet.coordinator.shard_campaign(jobs)
    dead = fleet.kill(1)               # abrupt death, jobs in flight
    result = campaign.wait()

    assert result.summary()["failed"] == 0
    assert all(record.ok for record in result.jobs)
    assert all(r is not None for r in result.results)
    # The dead member's share went somewhere else.
    survivors = set(fleet.alive())
    for record in result.jobs:
        assert record.member_id in survivors

    # Resubmission to the degraded fleet: the survivors hold everything
    # they computed, so locality stays above the acceptance bar.
    again = fleet.coordinator.run_many(
        [make_job(seed, num_ops=3000) for seed in range(10, 18)]
    )
    assert again.summary()["failed"] == 0
    assert again.locality >= 0.9
    assert dead not in {r.member_id for r in again.jobs}
    # Coordinator counters outlive the dead member and cover both runs.
    routing = fleet.coordinator.metrics()["routing"]
    assert routing["jobs_completed"] >= 2 * len(jobs)


def test_all_members_dead_fails_jobs_with_context(fleet):
    for index in range(3):
        fleet.kill(index)
    result = fleet.coordinator.run_many([make_job(seed=77)])
    record = result.jobs[0]
    assert record.status == "failed"
    assert record.failure in ("member_lost", "no_member")
    assert record.error


# -- guard rails ----------------------------------------------------------


def test_fleet_rejects_non_declarative_jobs(fleet):
    job = make_job(seed=5)
    job.setup = lambda machine, spec: None
    with pytest.raises(ValueError, match="declarative"):
        fleet.coordinator.shard_campaign([job])


def test_empty_fleet_raises():
    with pytest.raises(NoMemberAvailable):
        FleetCoordinator().shard_campaign([make_job(seed=1)])


# -- ops surface ----------------------------------------------------------


def test_metrics_rollup_aggregates_and_reports_unreachable(fleet):
    result = fleet.coordinator.run_many(
        [make_job(seed) for seed in range(50, 53)]
    )
    # Member ids carry ephemeral ports, so the ranking may route every
    # job to any one member; kill one that did not run the first job so at
    # least one completed job stays on a reachable member.
    first = result.jobs[0].member_id
    dead = fleet.kill(next(
        index for index in range(3) if fleet.member_id(index) != first
    ))
    survived = sum(1 for record in result.jobs if record.member_id != dead)
    metrics = fleet.coordinator.metrics()
    assert metrics["members_total"] == 3
    assert metrics["members_reachable"] == 2
    assert metrics["members"][dead]["reachable"] is False
    # No request failed on the dead member after the kill, so nothing
    # marked it down; the rollup reports the mark for every member.
    assert all(doc["down"] is False for doc in metrics["members"].values())
    # Coordinator-side counters survive member death; the member-side
    # aggregate only covers what is still reachable.
    assert metrics["routing"]["jobs_routed"] >= 3
    assert metrics["routing"]["jobs_completed"] >= 3
    assert metrics["fleet"]["jobs_completed"] >= 1
    assert metrics["fleet"]["jobs_completed"] == survived
    reachable = [m for m, doc in metrics["members"].items()
                 if doc["reachable"]]
    assert all("submit_latency_ms" in metrics["members"][m]
               for m in reachable)


def test_drain_shuts_every_member_down(fleet):
    report = fleet.coordinator.drain()
    assert all(doc["draining"] for doc in report.values())


def test_api_fleet_run_many(fleet):
    members = fleet.alive()
    specs = [make_job(seed).spec for seed in range(60, 63)]
    result = api.fleet_run_many(
        specs, members, config=spr_config(),
        tags=["x", "y", "z"],
    )
    assert result.summary()["failed"] == 0
    assert [record.tag for record in result.jobs] == ["x", "y", "z"]
    assert result.locality == 0.0
    again = api.fleet_run_many(
        [make_job(seed).spec for seed in range(60, 63)], members,
        config=spr_config(),
    )
    assert again.locality >= 0.9
