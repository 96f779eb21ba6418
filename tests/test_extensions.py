"""Tests for the extension features: memory pooling (multiple CXL DIMMs),
flit modes, thread migration, and the QoS DevLoad throttler."""

import pytest

from repro.core import AppSpec, PathFinder, ProfileSpec
from repro.sim import (
    DevLoadThrottler,
    FLIT_MODES,
    Machine,
    QoSConfig,
    spr_config,
)
from repro.sim.cxl_device import QoSLoadClass
from repro.workloads import RandomAccess, SequentialStream


# -- memory pooling ------------------------------------------------------------


def test_multiple_cxl_devices_build_distinct_nodes():
    machine = Machine(spr_config(num_cores=2, num_cxl_devices=3))
    cxl_nodes = machine.address_space.cxl_nodes
    assert len(cxl_nodes) == 3
    assert len(machine.cxl_devices) == 3
    assert len(machine.m2pcie) == 3
    assert len({n.node_id for n in cxl_nodes}) == 3


def test_striped_install_spreads_traffic_across_dimms():
    machine = Machine(spr_config(num_cores=2, num_cxl_devices=2))
    workload = RandomAccess(
        num_ops=2000, working_set_bytes=1 << 21, read_ratio=1.0, seed=3
    )
    node_ids = [n.node_id for n in machine.address_space.cxl_nodes]
    workload.install_striped(machine, node_ids)
    machine.pin(0, iter(workload))
    machine.run(max_events=20_000_000)
    assert machine.all_idle
    snap = machine.snapshot_counters()
    per_device = [
        snap.get((f"m2pcie{n}", "unc_m2p_rxc_inserts.all"), 0.0)
        for n in node_ids
    ]
    assert all(v > 0 for v in per_device)
    # Page striping splits roughly evenly.
    assert max(per_device) < 2.0 * min(per_device)


def test_mflows_bounded_by_core_times_dimm():
    """Section 4.2: an app touching N DIMMs owns N flows per core."""
    machine = Machine(spr_config(num_cores=2, num_cxl_devices=2))
    workload = RandomAccess(
        num_ops=1000, working_set_bytes=1 << 20, read_ratio=1.0, seed=5
    )
    node_ids = [n.node_id for n in machine.address_space.cxl_nodes]
    workload.install_striped(machine, node_ids)
    app = AppSpec(workload=workload, core=0, membind=node_ids[0])
    profiler = PathFinder(
        machine, ProfileSpec(apps=[app], epoch_cycles=25_000.0)
    )
    # Register the second DIMM's flow manually (membind covers only one).
    profiler.flows.get_or_create(
        app.pid, 0, node_ids[1], "cxl", app.name, 0.0
    )
    result = profiler.run()
    assert len([f for f in result.flows if f.pid == app.pid]) == 2


def test_path_map_reports_per_dimm_traffic():
    machine = Machine(spr_config(num_cores=2, num_cxl_devices=2))
    workload = RandomAccess(
        num_ops=2000, working_set_bytes=1 << 21, read_ratio=1.0, seed=7
    )
    node_ids = [n.node_id for n in machine.address_space.cxl_nodes]
    workload.install_striped(machine, node_ids)
    # The pages are placed already: membind would re-install the whole
    # working set on one DIMM.
    app = AppSpec(workload=workload, core=0, preinstalled=node_ids)
    result = PathFinder(
        machine, ProfileSpec(apps=[app], epoch_cycles=50_000.0)
    ).run()
    traffic = result.final.path_map.cxl_traffic
    assert set(traffic) == set(node_ids)
    assert all(traffic[node]["loads"] > 0 for node in node_ids)


# -- flit modes ---------------------------------------------------------------


def test_flit_mode_validation():
    with pytest.raises(ValueError):
        spr_config(flit_mode="1024B")
    for mode in FLIT_MODES:
        config = spr_config(flit_mode=mode)
        assert config.flit_bytes.name == mode


def _cxl_stream_runtime(flit_mode: str) -> float:
    machine = Machine(spr_config(num_cores=2, flit_mode=flit_mode))
    workload = SequentialStream(
        num_ops=4000, working_set_bytes=1 << 21, read_ratio=0.5,
        gap=0.5, seed=9,
    )
    workload.install(machine, machine.cxl_node.node_id)
    machine.pin(0, iter(workload))
    machine.run(max_events=40_000_000)
    assert machine.all_idle
    return machine.now


def test_256b_flits_no_slower_than_68b():
    """Lower header overhead => the 256B mode cannot lose on a
    write-heavy stream (every store ships a data flit)."""
    t_68 = _cxl_stream_runtime("68B")
    t_256 = _cxl_stream_runtime("256B")
    assert t_256 <= t_68 * 1.02


def test_pbr_flits_add_overhead():
    t_68 = _cxl_stream_runtime("68B")
    t_pbr = _cxl_stream_runtime("PBR")
    assert t_pbr >= t_68 * 0.98


# -- thread migration --------------------------------------------------------


def test_machine_migrate_moves_work():
    machine = Machine(spr_config(num_cores=2))
    workload = SequentialStream(
        num_ops=4000, working_set_bytes=1 << 21, read_ratio=1.0, seed=11
    )
    workload.install(machine, machine.local_node.node_id)
    done = []
    machine.pin(0, iter(workload), on_done=lambda: done.append(True))
    machine.engine.at(5_000.0, lambda: machine.migrate(0, 1))
    machine.run(max_events=40_000_000)
    assert done == [True]
    assert machine.all_idle
    ops0 = machine.cores[0].ops_completed
    ops1 = machine.cores[1].ops_completed
    assert ops0 > 0 and ops1 > 0
    assert ops0 + ops1 == 4000


def test_migrate_to_busy_core_rejected():
    machine = Machine(spr_config(num_cores=2))
    a = SequentialStream(num_ops=100, working_set_bytes=1 << 18, seed=1)
    b = SequentialStream(num_ops=100, working_set_bytes=1 << 18, seed=2)
    a.install(machine, machine.local_node.node_id)
    b.install(machine, machine.local_node.node_id)
    machine.pin(0, iter(a))
    machine.pin(1, iter(b))
    with pytest.raises(RuntimeError):
        machine.migrate(0, 1)
    with pytest.raises(ValueError):
        machine.migrate(0, 0)


def test_profiler_migration_creates_new_mflow():
    machine = Machine(spr_config(num_cores=2))
    workload = SequentialStream(
        num_ops=6000, working_set_bytes=1 << 21, read_ratio=1.0, seed=13
    )
    app = AppSpec(workload=workload, core=0,
                  membind=machine.cxl_node.node_id)
    profiler = PathFinder(
        machine, ProfileSpec(apps=[app], epoch_cycles=20_000.0)
    )
    profiler.schedule_migration(app.pid, new_core=1, at=30_000.0)
    result = profiler.run()
    flows = [f for f in result.flows if f.pid == app.pid]
    assert len(flows) == 2
    cores = sorted(f.core_id for f in flows)
    assert cores == [0, 1]
    old = next(f for f in flows if f.core_id == 0)
    new = next(f for f in flows if f.core_id == 1)
    assert old.ended_at is not None
    assert new.created_at >= 30_000.0


# -- QoS DevLoad throttling ---------------------------------------------------


def _saturating_setup(enabled: bool):
    # A media-bound device (slower DRAM than the link can feed) so the
    # device-side queues - the DevLoad signal - actually build up.
    from repro.sim.dram import DRAMTiming

    import dataclasses

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
            name=f"s{core}", num_ops=4000, working_set_bytes=1 << 21,
            read_ratio=1.0, gap=0.5, seed=20 + core,
        )
        stream.install(machine, node)
        machine.pin(core, iter(stream))
    machine.run(max_events=80_000_000)
    assert machine.all_idle
    return machine, throttler


def test_qos_throttler_reacts_to_overload():
    machine, throttler = _saturating_setup(enabled=True)
    assert throttler.history, "no control windows ran"
    classes = {load for _t, load, _a in throttler.history}
    assert classes - {QoSLoadClass.LIGHT}, "device never left light load"
    assert max(a for _t, _l, a in throttler.history) > 4.0


def test_qos_throttler_reduces_device_queueing():
    m_off, _ = _saturating_setup(enabled=False)
    m_on, throttler = _saturating_setup(enabled=True)
    node = m_on.cxl_node.node_id
    occ_off = m_off.cxl_devices[node].mc_queue.stats.mean_occupancy(m_off.now)
    occ_on = m_on.cxl_devices[node].mc_queue.stats.mean_occupancy(m_on.now)
    if throttler.throttled_windows() > 0:
        assert occ_on <= occ_off * 1.1


def test_qos_disabled_throttler_keeps_base_arbitration():
    machine, throttler = _saturating_setup(enabled=False)
    assert throttler.current_arbitration == 4.0
    assert throttler.history == []
