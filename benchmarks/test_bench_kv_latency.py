"""KV service latency across memory tiers (the Redis/YCSB axis of the
evaluation, sections 5.1/5.8).

The closed-loop KV client reports per-request latency percentiles like a
YCSB run.  Shapes asserted:

* query latency tracks the tier: local < interleaved < CXL (the paper's
  premise for Case 7);
* TPP on an interleaved store recovers most of the local-tier latency
  (paper: YCSB-C query latency improves with TPP);
* the tail (p99) degrades at least as much as the median when moving to
  CXL - dependent index+value chains amplify tier latency.
"""

import pytest

from repro.sim import Machine, spr_config
from repro.tiering import TPP, TPPConfig
from repro.workloads import KVClient, KVConfig

from .helpers import Table, record

REQUESTS = 400
KV = dict(num_keys=4096, value_bytes=256, zipf_theta=0.9)


def run_tier(tier: str, tpp_enabled: bool = False):
    machine = Machine(spr_config(num_cores=2))
    config = KVConfig(**KV)
    if tier == "interleaved":
        client = KVClient.__new__(KVClient)
        from repro.workloads.kv import KVStore
        from repro.workloads.base import Workload

        client.machine = machine
        client.core = 0
        client.config = config
        client.store = KVStore(config, seed=3)
        client.region = Workload("kv-region", client.store.total_bytes, 1, 3)
        client.region.install_interleaved(
            machine, machine.local_node.node_id, machine.cxl_node.node_id, 0.8
        )
        client.latencies = []
    else:
        node = machine.local_node if tier == "local" else machine.cxl_node
        client = KVClient(machine, core=0, node_id=node.node_id,
                          config=config, seed=3)
    tpp = TPP(
        machine,
        TPPConfig(epoch_cycles=10_000.0, promote_per_epoch=128,
                  hot_threshold=1.5),
        enabled=tpp_enabled,
    )
    client.run(REQUESTS)
    return client, tpp


@pytest.fixture(scope="module")
def tiers():
    return {
        "local": run_tier("local")[0],
        "interleaved": run_tier("interleaved")[0],
        "cxl": run_tier("cxl")[0],
    }


@pytest.fixture(scope="module")
def tpp_pair():
    return {
        enabled: run_tier("interleaved", tpp_enabled=enabled)
        for enabled in (False, True)
    }


def test_kv_latency_table(tiers):
    rows = []
    for tier, client in tiers.items():
        p50, p95, p99 = client.percentiles()
        rows.append([tier, client.mean_latency, p50, p95, p99])
    record(Table(
        "KV query latency by memory tier (cycles)",
        ["tier", "mean", "p50", "p95", "p99"],
        rows,
    ))
    assert tiers["local"].mean_latency < tiers["interleaved"].mean_latency
    assert tiers["interleaved"].mean_latency < tiers["cxl"].mean_latency


def test_kv_tail_amplification(tiers):
    local_p99 = tiers["local"].percentiles(99)[0]
    cxl_p99 = tiers["cxl"].percentiles(99)[0]
    local_p50 = tiers["local"].percentiles(50)[0]
    cxl_p50 = tiers["cxl"].percentiles(50)[0]
    # The tail moves at least as much as the median.
    assert cxl_p99 / local_p99 >= 0.8 * (cxl_p50 / local_p50)
    assert cxl_p99 > 2.0 * local_p99


def test_kv_tpp_improves_query_latency(tpp_pair):
    off_client, _ = tpp_pair[False]
    on_client, tpp = tpp_pair[True]
    rows = [
        ["off", off_client.mean_latency, off_client.percentiles(99)[0]],
        ["on", on_client.mean_latency, on_client.percentiles(99)[0]],
    ]
    record(Table("KV latency, TPP off vs on (4:1 interleave)",
                 ["tpp", "mean", "p99"], rows))
    assert tpp.stats.promotions > 0
    # Paper: YCSB-C query latency improves by 2.5% with TPP.
    assert on_client.mean_latency <= off_client.mean_latency * 1.02
