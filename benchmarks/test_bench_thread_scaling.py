"""Thread-count scaling on local vs CXL memory (Table 6's 1-64 threads).

The paper runs every suite application at 1-64 threads; the interesting
system-level shape is where scaling saturates: local DDR keeps scaling
across the core counts we simulate, while the CXL DIMM's FlexBus pins
aggregate throughput to its ~17.6 GB/s ceiling after a few cores.
"""

import pytest

from repro.sim import Machine, spr_config
from repro.workloads import split_workload

from .helpers import Table, record

THREADS = (1, 2, 4, 8)


def run_scaling(node: str):
    out = {}
    for threads in THREADS:
        machine = Machine(spr_config(num_cores=max(2, threads)))
        shards = split_workload(
            "scale", threads, working_set_bytes=1 << 25,
            num_ops_per_thread=3000, read_ratio=1.0, shared_fraction=0.0,
            gap=0.5, seed=7,
        )
        node_id = (
            machine.cxl_node.node_id if node == "cxl"
            else machine.local_node.node_id
        )
        shards[0].install(machine, node_id)
        for i, shard in enumerate(shards):
            machine.pin(i, iter(shard))
        machine.run(max_events=150_000_000)
        assert machine.all_idle
        total_ops = threads * 3000
        out[threads] = total_ops / machine.now
    return out


@pytest.fixture(scope="module")
def scaling():
    return {node: run_scaling(node) for node in ("local", "cxl")}


def test_thread_scaling_table(scaling):
    rows = []
    for threads in THREADS:
        rows.append([
            threads,
            scaling["local"][threads] * 1000,
            scaling["cxl"][threads] * 1000,
        ])
    record(Table(
        "Aggregate throughput vs thread count (ops/kcycle)",
        ["threads", "local", "cxl"],
        rows,
    ))


def test_local_keeps_scaling(scaling):
    local = scaling["local"]
    assert local[8] > 2.5 * local[1]


def test_cxl_saturates_early(scaling):
    cxl = scaling["cxl"]
    # Going 4 -> 8 threads buys little once the FlexBus is full.
    assert cxl[8] < 1.6 * cxl[4]
    # And the local/CXL gap widens with threads.
    gap_1 = scaling["local"][1] / cxl[1]
    gap_8 = scaling["local"][8] / cxl[8]
    assert gap_8 > gap_1
