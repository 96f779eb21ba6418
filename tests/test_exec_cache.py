"""Content-addressed result cache: key stability, invalidation, recovery.

The cache key must be a pure function of the *task* (spec + machine
config + code version), not of per-process identity such as pids, page
bases or RNG state — otherwise two processes describing the same job
would never share an entry.
"""

import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import AppSpec, ProfileSpec
from repro.exec import (
    CampaignJob,
    ResultCache,
    code_fingerprint,
    cxl_node_id,
    job_key,
    run_campaign,
)
from repro.sim import emr_config, spr_config
from repro.workloads import build_app


def make_spec(seed: int = 3, num_ops: int = 600) -> ProfileSpec:
    workload = build_app("541.leela_r", num_ops=num_ops, seed=seed)
    app = AppSpec(
        workload=workload, core=0, membind=cxl_node_id(spr_config())
    )
    return ProfileSpec(apps=[app], epoch_cycles=20_000.0)


# -- key stability --------------------------------------------------------


def test_job_key_ignores_process_identity():
    # Two independently built specs describe the same job even though
    # AppSpec assigns fresh pids and Workload fresh page bases.
    a, b = make_spec(), make_spec()
    assert a.apps[0].pid != b.apps[0].pid
    assert job_key(a, spr_config()) == job_key(b, spr_config())


@dataclasses.dataclass
class LabConfig:
    """A config the key memo cannot hash (mutable, with a list field)."""

    name: str = "lab"
    num_cores: int = 2
    latencies: list = dataclasses.field(default_factory=lambda: [5.0, 15.0])


@pytest.mark.parametrize("config, pinned", [
    (spr_config(), "415af2b126bb220c077893c282924f640686a286"),
    # Equal to spr_config() (5 == 5.0), but keyed apart, as before.
    (dataclasses.replace(spr_config(), l1_latency=5),
     "cc2d10de5f4b2acbcda657f56c6a72fa4f411bf2"),
    (LabConfig(), "0988be1a5047165e5dd0be18c5258e894422119e"),
], ids=["spr", "spr-int-field", "unhashable"])
def test_job_key_matches_its_pinned_value(config, pinned):
    # Pinned before the canonical config form was memoized: the second
    # call reads the memo, where there is one, and must agree.
    for _ in range(2):
        assert job_key(make_spec(num_ops=200), config,
                       code_version="pinned") == pinned


def test_job_key_is_stable_across_processes(tmp_path):
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from tests.test_exec_cache import make_spec\n"
        "from repro.exec import job_key\n"
        "from repro.sim import spr_config\n"
        "print(job_key(make_spec(), spr_config()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    assert out.stdout.strip() == job_key(make_spec(), spr_config())


def test_job_key_changes_with_machine_config():
    spec = make_spec()
    base = job_key(spec, spr_config())
    assert base != job_key(spec, emr_config())
    tweaked = dataclasses.replace(spr_config(), cxl_controller_latency=999.0)
    assert base != job_key(spec, tweaked)


def test_job_key_changes_with_workload_and_budget():
    base = job_key(make_spec(), spr_config())
    assert base != job_key(make_spec(num_ops=601), spr_config())
    assert base != job_key(make_spec(seed=4), spr_config())
    assert base != job_key(make_spec(), spr_config(), max_events=10)


def test_job_key_changes_with_code_version():
    spec = make_spec()
    assert job_key(spec, spr_config(), code_version="aaaa") != job_key(
        spec, spr_config(), code_version="bbbb"
    )
    # The implicit version is the fingerprint of the repro sources.
    assert job_key(spec, spr_config()) == job_key(
        spec, spr_config(), code_version=code_fingerprint()
    )


def _setup_hook(machine, spec, strength=1):
    pass


def test_campaign_job_key_includes_setup_hook_arguments():
    spec, config = make_spec(), spr_config()
    plain = CampaignJob(spec=spec, config=config)
    weak = CampaignJob(
        spec=spec, config=config,
        setup=functools.partial(_setup_hook, strength=1),
    )
    strong = CampaignJob(
        spec=spec, config=config,
        setup=functools.partial(_setup_hook, strength=2),
    )
    keys = {plain.key(), weak.key(), strong.key()}
    assert len(keys) == 3


# -- storage round-trip and corruption recovery ---------------------------


def _totals(result):
    totals = {}
    for epoch in result.epochs:
        for key, value in epoch.snapshot.delta.items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


def _run_one(tmp_path, **job_kwargs):
    cache = ResultCache(tmp_path / "cache")
    job = CampaignJob(spec=make_spec(), config=spr_config(), **job_kwargs)
    campaign = run_campaign(
        [job], parallel=False, cache=cache, retries=0
    )
    return cache, job, campaign


def test_cache_round_trip_preserves_counters(tmp_path):
    cache, job, campaign = _run_one(tmp_path)
    assert campaign.jobs[0].status == "ok"
    assert len(cache) == 1
    cached = cache.get(job.key())
    assert cached is not None
    assert _totals(cached) == _totals(campaign.results[0])
    assert cached.num_epochs == campaign.results[0].num_epochs


def test_corrupted_entry_falls_back_to_recompute(tmp_path):
    cache, job, campaign = _run_one(tmp_path)
    path = cache.root / f"{job.key()}.json"
    path.write_text("{not json at all")
    assert cache.get(job.key()) is None
    # The corrupt file was dropped so the next run can re-populate it.
    assert not path.exists()
    rerun = run_campaign(
        [CampaignJob(spec=make_spec(), config=spr_config())],
        parallel=False, cache=cache, retries=0,
    )
    assert rerun.jobs[0].status == "ok"
    assert _totals(rerun.results[0]) == _totals(campaign.results[0])
    assert path.exists()


def test_wrong_format_or_mismatched_key_entry_is_rejected(tmp_path):
    cache, job, _campaign = _run_one(tmp_path)
    path = cache.root / f"{job.key()}.json"
    entry = json.loads(path.read_text())
    entry["entry_format"] = "pathfinder-cache-v999"
    path.write_text(json.dumps(entry))
    assert cache.get(job.key()) is None

    cache2, job2, _ = _run_one(tmp_path / "b")
    path2 = cache2.root / f"{job2.key()}.json"
    entry = json.loads(path2.read_text())
    entry["key"] = "0" * 40
    path2.write_text(json.dumps(entry))
    assert cache2.get(job2.key()) is None


def test_cache_rejects_malformed_keys(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.get("../../etc/passwd")
    with pytest.raises(ValueError):
        cache.get("")


def test_cache_meta_records_job_stats(tmp_path):
    cache, job, campaign = _run_one(tmp_path, tag="meta-probe")
    meta = cache.get_entry(job.key())["meta"]
    assert meta["tag"] == "meta-probe"
    assert meta["events_executed"] == campaign.jobs[0].events_executed
    assert meta["total_cycles"] == campaign.jobs[0].total_cycles


def test_second_campaign_hits_cache_with_identical_counters(tmp_path):
    cache, _job, first = _run_one(tmp_path)
    rerun = run_campaign(
        [CampaignJob(spec=make_spec(), config=spr_config())],
        parallel=False, cache=cache, retries=0,
    )
    assert rerun.jobs[0].status == "cache_hit"
    assert rerun.hit_rate == 1.0
    assert _totals(rerun.results[0]) == _totals(first.results[0])
    # Hit records still report the recorded execution stats.
    assert rerun.jobs[0].events_executed == first.jobs[0].events_executed


def test_pool_computed_campaign_is_served_from_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")

    def jobs():
        return [CampaignJob(spec=make_spec(seed=seed), config=spr_config())
                for seed in (3, 4)]

    cold = run_campaign(jobs(), workers=2, cache=cache, retries=0)
    assert cold.workers == 2  # computed on the warm pool, not inline
    assert not cold.failed and cold.hit_rate == 0.0
    warm = run_campaign(jobs(), workers=2, cache=cache, retries=0)
    assert warm.hit_rate == 1.0
    for fresh, cached in zip(cold.results, warm.results):
        assert _totals(cached) == _totals(fresh)


def test_non_cacheable_job_skips_the_cache(tmp_path):
    cache, _job, _campaign = _run_one(tmp_path, cacheable=False)
    assert len(cache) == 0


# -- concurrent writers ---------------------------------------------------


def test_concurrent_puts_on_one_key_leave_one_stable_entry(tmp_path):
    # Two workers that both missed race their recomputed results onto the
    # same key.  First writer must win and every later get must read that
    # entry - not whichever loser renamed last.
    import threading

    cache = ResultCache(tmp_path / "cache")
    key = "ab" * 20
    session = {"epochs": [], "marker": None}
    barrier = threading.Barrier(8)
    errors = []

    def writer(i):
        try:
            barrier.wait()
            cache.put_document(key, dict(session, marker=i),
                              meta={"writer": i})
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) == 1
    # No orphaned temp files left behind by the losers.
    assert list(cache.root.glob("*.tmp")) == []
    first = cache.get_entry(key)
    assert first is not None
    # get-after-put is deterministic: repeated reads see the same winner.
    for _ in range(3):
        again = cache.get_entry(key)
        assert again["session"]["marker"] == first["session"]["marker"]
        assert again["meta"]["writer"] == first["meta"]["writer"]


def test_put_after_put_keeps_first_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "cd" * 20
    cache.put_document(key, {"epochs": [], "marker": "first"})
    cache.put_document(key, {"epochs": [], "marker": "second"})
    assert cache.get_entry(key)["session"]["marker"] == "first"


# -- stats and LRU pruning ------------------------------------------------


def test_stats_counts_entries_bytes_and_traffic(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    empty = cache.stats()
    assert empty["entries"] == 0 and empty["total_bytes"] == 0
    assert empty["hit_ratio"] == 0.0

    cache.put_document("11" * 20, {"epochs": []})
    cache.put_document("22" * 20, {"epochs": []})
    assert cache.get_entry("11" * 20) is not None
    assert cache.get_entry("99" * 20) is None
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["total_bytes"] > 0
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_ratio"] == 0.5
    assert stats["oldest_mtime"] <= stats["newest_mtime"]


def test_prune_evicts_least_recently_used_first(tmp_path):
    import os

    cache = ResultCache(tmp_path / "cache")
    keys = ["aa" * 20, "bb" * 20, "cc" * 20]
    for i, key in enumerate(keys):
        cache.put_document(key, {"epochs": [], "pad": "x" * 256})
        # Spread mtimes so LRU order is unambiguous without sleeping.
        os.utime(cache._path(key), (1000.0 + i, 1000.0 + i))
    # A hit refreshes recency: the oldest-by-write entry becomes warm.
    assert cache.get_entry(keys[0]) is not None

    size = cache._path(keys[0]).stat().st_size
    report = cache.prune(max_bytes=size)
    # keys[1] and keys[2] were the cold tail; the freshly-touched
    # keys[0] survives.
    assert report["removed"] == 2
    assert report["remaining_bytes"] <= size
    assert keys[0] in cache
    assert keys[1] not in cache and keys[2] not in cache


def test_prune_to_zero_clears_everything(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put_document("ee" * 20, {"epochs": []})
    report = cache.prune(max_bytes=0)
    assert report["removed"] == 1
    assert report["remaining_bytes"] == 0
    assert len(cache) == 0
    with pytest.raises(ValueError):
        cache.prune(max_bytes=-1)
