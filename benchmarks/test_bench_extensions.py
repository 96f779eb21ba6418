"""Extension experiments beyond the paper's tables.

* **Memory pooling** - striping one working set across two CXL DIMMs
  roughly doubles the aggregate device bandwidth a single app can pull;
* **QoS DevLoad throttling** (section 3.5's future work, built here) -
  with a media-bound device, host-side throttling trades a little
  throughput for a large cut in device-side queueing;
* **Flit modes** - 256B flits beat 68B on write-heavy streams (lower
  header overhead); PBR adds routed-fabric overhead.
"""

import dataclasses

from repro.sim import DevLoadThrottler, Machine, QoSConfig, spr_config
from repro.sim.dram import DRAMTiming
from repro.workloads import SequentialStream

from .helpers import Table, record


def _pool_run(num_devices: int) -> float:
    machine = Machine(spr_config(num_cores=2, num_cxl_devices=num_devices))
    node_ids = [n.node_id for n in machine.address_space.cxl_nodes]
    workload = SequentialStream(
        name="pool", num_ops=8000, working_set_bytes=1 << 22,
        read_ratio=1.0, gap=0.5, seed=3,
    )
    workload.install_striped(machine, node_ids)
    machine.pin(0, iter(workload))
    machine.run(max_events=60_000_000)
    assert machine.all_idle
    return machine.now


def test_pooling_scales_bandwidth():
    results = {n: _pool_run(n) for n in (1, 2)}
    record(Table(
        "Extension: CXL pooling (striped stream)",
        ["devices", "cycles", "speedup"],
        [[n, t, results[1] / t] for n, t in sorted(results.items())],
    ))
    assert results[2] < results[1]


def _qos_run(enabled: bool):
    config = dataclasses.replace(
        spr_config(num_cores=4),
        cxl_dram=DRAMTiming(access_latency=240.0, bytes_per_cycle=3.0,
                            channels=1),
    )
    machine = Machine(config)
    node = machine.cxl_node.node_id
    throttler = DevLoadThrottler.attach(
        machine, node, QoSConfig(window_cycles=2_000.0), enabled=enabled
    )
    for core in range(4):
        stream = SequentialStream(
            name=f"s{core}", num_ops=3000, working_set_bytes=1 << 21,
            read_ratio=1.0, gap=0.5, seed=20 + core,
        )
        stream.install(machine, node)
        machine.pin(core, iter(stream))
    machine.run(max_events=60_000_000)
    assert machine.all_idle
    device = machine.cxl_devices[node]
    return {
        "cycles": machine.now,
        "device_queue": device.mc_queue.stats.mean_occupancy(machine.now),
        "throttled_windows": throttler.throttled_windows(),
    }


def test_qos_throttling_tames_device_queue():
    results = {e: _qos_run(e) for e in (False, True)}
    record(Table(
        "Extension: DevLoad QoS throttling (media-bound device)",
        ["throttle", "cycles", "device queue", "windows throttled"],
        [
            [("on" if e else "off"), d["cycles"], d["device_queue"],
             d["throttled_windows"]]
            for e, d in results.items()
        ],
    ))
    assert results[True]["throttled_windows"] > 0
    assert results[True]["device_queue"] <= results[False]["device_queue"]


def _flit_run(mode: str) -> float:
    machine = Machine(spr_config(num_cores=2, flit_mode=mode))
    workload = SequentialStream(
        num_ops=5000, working_set_bytes=1 << 21, read_ratio=0.5,
        gap=0.5, seed=9,
    )
    workload.install(machine, machine.cxl_node.node_id)
    machine.pin(0, iter(workload))
    machine.run(max_events=50_000_000)
    assert machine.all_idle
    return machine.now


def test_flit_mode_efficiency():
    results = {m: _flit_run(m) for m in ("68B", "256B", "PBR")}
    record(Table(
        "Extension: flit-mode efficiency on a write-heavy stream",
        ["mode", "cycles"],
        [[m, t] for m, t in results.items()],
    ))
    assert results["256B"] <= results["68B"] * 1.02
    assert results["PBR"] >= results["256B"] * 0.98
