"""Campaign runner at benchmark scale: fan-out speedup and cache reruns.

A 16-job grid (8 apps x {local, cxl}) exercises the acceptance criteria
of the runner itself:

* with 4 workers the campaign finishes well under the serial wall time
  (skipped on boxes without enough cores to show a speedup);
* a rerun against a warm cache is at least 5x faster, serves >=90% of
  jobs from the cache, and reproduces the recorded counters exactly.
"""

import os
import time

import pytest

from repro import RunOptions, api
from repro.exec import ResultCache
from repro.experiments import pinned_job
from repro.workloads import build_app

from .helpers import CHARACTERIZATION_APPS, Table, record

GRID_APPS = CHARACTERIZATION_APPS + ("531.deepsjeng_r", "549.fotonik3d_r")
OPS = 1500


def make_grid():
    return [
        pinned_job(build_app(name, num_ops=OPS, seed=17), node,
                   tag=f"{name}@{node}")
        for name in GRID_APPS for node in ("local", "cxl")
    ]


def _tag_counters(campaign):
    return {
        record.tag: api.counters(campaign.results[record.index])
        for record in campaign.jobs
        if campaign.results[record.index] is not None
    }


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache populated by one cold serial pass over the 16-job grid."""
    cache = ResultCache(tmp_path_factory.mktemp("campaign") / "cache")
    t0 = time.perf_counter()
    cold = api.run_many(make_grid(), parallel=False,
                        options=RunOptions(cache=cache, retries=0))
    cold_wall = time.perf_counter() - t0
    return cache, cold, cold_wall


def test_campaign_grid_completes(warm_cache):
    _cache, cold, cold_wall = warm_cache
    assert len(cold.jobs) == len(GRID_APPS) * 2 == 16
    assert not cold.failed
    assert cold.hit_rate == 0.0
    record(Table(
        "16-job campaign: cold serial",
        ["jobs", "wall (s)", "events"],
        [[len(cold.jobs), cold_wall, cold.summary()["total_events"]]],
        timing=True,
    ))


def test_campaign_rerun_hits_cache_and_is_faster(warm_cache):
    cache, cold, cold_wall = warm_cache
    t0 = time.perf_counter()
    warm = api.run_many(make_grid(), parallel=False,
                        options=RunOptions(cache=cache, retries=0))
    warm_wall = time.perf_counter() - t0
    record(Table(
        "16-job campaign: warm rerun",
        ["hit rate", "cold wall (s)", "warm wall (s)", "speedup"],
        [[warm.hit_rate, cold_wall, warm_wall, cold_wall / warm_wall]],
        timing=True,
    ))
    assert warm.hit_rate >= 0.9
    assert not warm.failed
    assert warm_wall < cold_wall / 5.0
    # Identical ProfileResult counters, job by job.
    assert _tag_counters(warm) == _tag_counters(cold)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >=4 cores",
)
def test_campaign_parallel_speedup(warm_cache):
    _cache, cold, cold_wall = warm_cache
    t0 = time.perf_counter()
    parallel = api.run_many(
        make_grid(), parallel=True, workers=4,
        options=RunOptions(cache=False, retries=0),
    )
    parallel_wall = time.perf_counter() - t0
    record(Table(
        "16-job campaign: 4 workers vs serial",
        ["serial (s)", "parallel (s)", "ratio"],
        [[cold_wall, parallel_wall, parallel_wall / cold_wall]],
        timing=True,
    ))
    assert not parallel.failed
    assert parallel_wall <= 0.45 * cold_wall
    assert _tag_counters(parallel) == _tag_counters(cold)


def test_campaign_parallel_matches_serial_counters(warm_cache):
    """Even on a small box, a 2-worker pool over a 4-job slice reproduces
    the serial counters (process isolation does not leak into results)."""
    _cache, cold, _cold_wall = warm_cache
    slice_jobs = make_grid()[:4]
    parallel = api.run_many(
        slice_jobs, parallel=True, workers=2,
        options=RunOptions(cache=False, retries=0),
    )
    assert not parallel.failed
    got = _tag_counters(parallel)
    cold_counters = _tag_counters(cold)
    assert got == {tag: cold_counters[tag] for tag in got}
