"""Ablations over the design choices DESIGN.md calls out.

Three knobs of the simulated substrate that the paper's observations
depend on:

* **hardware prefetchers** - the HWPF path (section 2.2 #4) only exists
  with them on; off, the DRd path must absorb the traffic;
* **LLC replacement policy** - section 4.5 models components as S3-FIFO
  queues; we compare LRU vs S3-FIFO LLC under a scan-heavy mix;
* **SNC clustering** - with SNC off (one cluster) the snc_LLC serve
  class disappears from the CHA classification.
"""

from repro.experiments import pinned_job
from repro.sim import spr_config
from repro.workloads import SequentialStream, ZipfAccess, build_app

from .helpers import Table, profile, record


def test_ablation_prefetcher():
    states = (True, False)
    runs = profile([
        pinned_job(build_app("519.lbm_r", num_ops=8000, seed=3), "cxl",
                   spr_config(num_cores=2, prefetch_enabled=enabled),
                   tag=f"prefetch={enabled}")
        for enabled in states
    ])
    out = {
        enabled: {
            "runtime": run.cycles,
            "hwpf_cxl": run.core().ocr("HWPF", "cxl_dram"),
            "drd_cxl": run.core().ocr("DRd", "cxl_dram"),
        }
        for enabled, run in zip(states, runs)
    }
    rows = [
        [("on" if enabled else "off"), data["runtime"], data["hwpf_cxl"],
         data["drd_cxl"]]
        for enabled, data in out.items()
    ]
    record(Table("Ablation: HW prefetchers on CXL-bound lbm",
                 ["prefetch", "cycles", "HWPF CXL", "DRd CXL"], rows))
    # With prefetchers, the HWPF path carries CXL traffic; without, zero.
    assert out[True]["hwpf_cxl"] > 0
    assert out[False]["hwpf_cxl"] == 0
    # Demand path absorbs the traffic instead.
    assert out[False]["drd_cxl"] > out[True]["drd_cxl"]
    # Prefetching hides latency: streaming finishes no slower with it on.
    assert out[True]["runtime"] <= out[False]["runtime"] * 1.1


def test_ablation_llc_policy():
    policies = ("lru", "s3fifo")
    # Zipf reuse + a streaming scan: the S3-FIFO design point.
    runs = profile([
        pinned_job(
            ZipfAccess(name="reuse", num_ops=9000, working_set_bytes=3 << 20,
                       theta=0.7, gap=3.0, seed=5),
            "local",
            spr_config(num_cores=2, llc_policy=policy, l2_size=512 * 1024,
                       llc_size=2 << 20),
            tag=policy,
        )
        for policy in policies
    ])
    out = {
        policy: {
            "llc_hits": run.cha().llc_hits("DRd"),
            "llc_misses": run.cha().llc_misses("DRd"),
            "runtime": run.cycles,
        }
        for policy, run in zip(policies, runs)
    }
    rows = [
        [policy, data["llc_hits"], data["llc_misses"], data["runtime"]]
        for policy, data in out.items()
    ]
    record(Table("Ablation: LLC replacement under zipf reuse",
                 ["policy", "LLC hits", "LLC misses", "cycles"], rows))
    # Both policies must function; neither may collapse to zero service.
    for policy, data in out.items():
        assert data["llc_hits"] + data["llc_misses"] > 0, policy


def test_ablation_snc():
    clusters = (1, 2)
    runs = profile([
        pinned_job(
            SequentialStream(name="snc-probe", num_ops=6000,
                             working_set_bytes=3 << 20, read_ratio=1.0,
                             gap=3.0, seed=7),
            "local", spr_config(num_cores=2, snc_clusters=n), tag=f"snc{n}",
        )
        for n in clusters
    ])
    out = {
        n: {
            "local_llc": run.core().ocr("DRd", "l3_hit"),
            "snc_llc": run.core().ocr("DRd", "snc_cache"),
        }
        for n, run in zip(clusters, runs)
    }
    record(Table(
        "Ablation: SNC clustering and LLC serve classes",
        ["clusters", "local-slice hits", "snc-slice hits"],
        [[c, d["local_llc"], d["snc_llc"]] for c, d in out.items()],
    ))
    # One cluster: every slice is "local"; two: the distant class exists.
    assert out[1]["snc_llc"] == 0
