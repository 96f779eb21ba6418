"""Section 2.3 baseline: MLC-style idle latency and peak bandwidth.

Paper (SPR testbed): local DDR5 103.2 ns / 131.1 GB/s, CXL Type-3 DIMM
355.3 ns / 17.6 GB/s - a ~3.4x latency and ~7.5x bandwidth gap that every
downstream phenomenon derives from.  This bench reproduces the probe and
asserts the gap's shape.
"""

import pytest

from repro.sim import Machine, spr_config
from repro.workloads import PointerChase, SequentialStream

from .helpers import Table, record

PAPER = {
    "local": {"latency_ns": 103.2, "bandwidth_gbs": 131.1},
    "cxl": {"latency_ns": 355.3, "bandwidth_gbs": 17.6},
}


def idle_latency_ns(node: str) -> float:
    machine = Machine(spr_config(num_cores=2))
    chase = PointerChase(num_ops=1500, working_set_bytes=1 << 24, gap=0.0, seed=1)
    target = machine.local_node if node == "local" else machine.cxl_node
    chase.install(machine, target.node_id)
    machine.pin(0, iter(chase))
    machine.run(max_events=30_000_000)
    snap = machine.snapshot_counters()
    key = "local_DRAM" if node == "local" else "CXL_DRAM"
    total = snap.get(("core0", f"lat_sample.{key}.sum"), 0.0)
    count = snap.get(("core0", f"lat_sample.{key}.count"), 0.0)
    assert count > 0, "latency probe produced no samples"
    return machine.config.ns(total / count)


def loaded_bandwidth_gbs(node: str, cores: int = 8) -> float:
    machine = Machine(spr_config(num_cores=cores))
    target = machine.local_node if node == "local" else machine.cxl_node
    for core in range(cores):
        stream = SequentialStream(
            name=f"bw{core}", num_ops=4000, working_set_bytes=1 << 22,
            read_ratio=1.0, gap=0.0, seed=core,
        )
        stream.install(machine, target.node_id)
        machine.pin(core, iter(stream))
    machine.run(max_events=120_000_000)
    assert machine.all_idle
    snap = machine.snapshot_counters()
    event = "unc_m_cas_count.rd" if node == "local" else "unc_m2p_txc_inserts.bl"
    lines = sum(v for (s, e), v in snap.items() if e == event)
    bytes_per_cycle = lines * 64 / machine.now
    return bytes_per_cycle * machine.config.frequency_ghz


@pytest.fixture(scope="module")
def measurements():
    return {
        node: {
            "latency_ns": idle_latency_ns(node),
            "bandwidth_gbs": loaded_bandwidth_gbs(node),
        }
        for node in ("local", "cxl")
    }


def test_mlc_table(measurements):
    rows = [
        [
            node,
            measurements[node]["latency_ns"],
            PAPER[node]["latency_ns"],
            measurements[node]["bandwidth_gbs"],
            PAPER[node]["bandwidth_gbs"],
        ]
        for node in ("local", "cxl")
    ]
    record(Table(
        "MLC probe (section 2.3)",
        ["node", "latency ns", "paper ns", "BW GB/s", "paper GB/s"],
        rows,
    ))


def test_latency_gap_shape(measurements):
    local = measurements["local"]["latency_ns"]
    cxl = measurements["cxl"]["latency_ns"]
    # Paper gap is 3.44x; accept anything clearly in that regime.
    assert 2.0 < cxl / local < 5.5
    # Absolute numbers calibrated within ~25% of the testbed's.
    assert abs(local - 103.2) / 103.2 < 0.25
    assert abs(cxl - 355.3) / 355.3 < 0.25


def test_bandwidth_gap_shape(measurements):
    local = measurements["local"]["bandwidth_gbs"]
    cxl = measurements["cxl"]["bandwidth_gbs"]
    assert local / cxl > 3.0          # paper: 7.5x (we drive fewer cores)
    assert abs(cxl - 17.6) / 17.6 < 0.25
