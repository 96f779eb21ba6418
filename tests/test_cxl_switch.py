"""Tests for one host behind one CXL switch, built as a one-host
FabricSpec on a whole machine."""

import pytest

from repro.sim import Machine, apply_fabric, attach_fabric, spr_config
from repro.workloads import SequentialStream
from tests.test_fabric import one_host_spec


def test_switch_retry_counters_monotone():
    """Retry counters never decrease across successive PMU snapshots."""
    spec = one_host_spec(bytes_per_cycle=1.0, queue_depth=2)
    machine = Machine(apply_fabric(spr_config(num_cores=2), spec))
    workload = SequentialStream(
        num_ops=1500, working_set_bytes=1 << 21, gap=0.5, seed=11,
    )
    workload.install(machine, machine.cxl_node.node_id)
    machine.pin(0, iter(workload))
    last = 0.0
    for _ in range(40):
        machine.run(until=machine.now + 5_000.0)
        snap = machine.snapshot_counters()
        current = snap.get(("cxlsw.sw0", "unc_cxlsw_retry.dev0"), 0.0)
        assert current >= last
        last = current
        if machine.all_idle:
            break
    assert machine.all_idle
    assert last > 0


def test_double_attach_switch_raises():
    machine = Machine(spr_config(num_cores=2))
    first = attach_fabric(machine, one_host_spec())
    assert machine.fabric is first
    with pytest.raises(RuntimeError):
        attach_fabric(machine, one_host_spec())
