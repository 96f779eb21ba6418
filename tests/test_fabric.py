"""Tests for the switched CXL fabric (repro.sim.fabric), from one host
behind one switch to multi-host, multi-tier pools."""

import dataclasses
import json
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AppSpec, PathFinder, ProfileSpec
from repro.pmu.registry import CounterRegistry
from repro.sim import (
    FLIT_MODES,
    Engine,
    FabricSpec,
    HostSpec,
    Machine,
    SwitchSpec,
    apply_fabric,
    attach_fabric,
    preset_fabric,
    spr_config,
)
from repro.workloads import RandomAccess, SequentialStream


def one_switch_spec(**switch_overrides) -> FabricSpec:
    return FabricSpec(
        hosts=(HostSpec("host0"), HostSpec("host1")),
        switches=(SwitchSpec("sw0", **switch_overrides),),
        devices=("dev0",),
        links=(("host0", "sw0"), ("host1", "sw0"), ("sw0", "dev0")),
    )


def one_host_spec(num_devices: int = 1, **switch_overrides) -> FabricSpec:
    """One switch between the machine and ``num_devices`` devices."""
    devices = tuple(f"dev{i}" for i in range(num_devices))
    return FabricSpec(
        hosts=(HostSpec("host0"),),
        switches=(SwitchSpec("sw0", **switch_overrides),),
        devices=devices,
        links=(("host0", "sw0"),) + tuple(("sw0", d) for d in devices),
    )


# -- spec validation ---------------------------------------------------------


def test_spec_rejects_empty_topologies():
    with pytest.raises(ValueError):
        FabricSpec(hosts=(), switches=(SwitchSpec("sw0"),),
                   devices=("dev0",), links=(("sw0", "dev0"),))
    with pytest.raises(ValueError):
        FabricSpec(hosts=(HostSpec("host0"),), switches=(),
                   devices=("dev0",), links=())


def test_spec_rejects_link_bypassing_switches():
    with pytest.raises(ValueError, match="bypasses"):
        FabricSpec(
            hosts=(HostSpec("host0"),),
            switches=(SwitchSpec("sw0"),),
            devices=("dev0",),
            links=(("host0", "dev0"), ("host0", "sw0"), ("sw0", "dev0")),
        )


def test_spec_rejects_unknown_link_endpoint():
    with pytest.raises(ValueError, match="unknown node"):
        FabricSpec(
            hosts=(HostSpec("host0"),),
            switches=(SwitchSpec("sw0"),),
            devices=("dev0",),
            links=(("host0", "sw0"), ("sw0", "ghost")),
        )


def test_spec_rejects_unreachable_device():
    with pytest.raises(ValueError, match="cannot reach"):
        FabricSpec(
            hosts=(HostSpec("host0"),),
            switches=(SwitchSpec("sw0"), SwitchSpec("sw1")),
            devices=("dev0",),
            links=(("host0", "sw0"), ("sw1", "dev0")),
        )


def test_spec_rejects_duplicate_names():
    with pytest.raises(ValueError, match="unique"):
        FabricSpec(
            hosts=(HostSpec("x"),),
            switches=(SwitchSpec("x"),),
            devices=("dev0",),
            links=(("x", "dev0"),),
        )


def test_spec_normalises_plain_strings():
    spec = FabricSpec(
        hosts=("host0",), switches=("sw0",), devices=("dev0",),
        links=(("host0", "sw0"), ("sw0", "dev0")),
    )
    assert spec.hosts[0] == HostSpec("host0")
    assert spec.switches[0].queue_depth == 128


def test_spec_accepts_exactly_the_topology_flit_modes():
    spec = one_host_spec()
    for mode in FLIT_MODES:
        assert dataclasses.replace(spec, flit_mode=mode).flit_mode == mode
    with pytest.raises(ValueError, match="flit mode"):
        dataclasses.replace(spec, flit_mode="1024B")


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset_fabric("nonsense")


# -- serde -------------------------------------------------------------------


def test_fabric_spec_round_trips_through_json():
    spec = preset_fabric("two-tier", num_devices=2)
    document = json.loads(json.dumps(spec.to_document()))
    assert FabricSpec.from_document(document) == spec


def test_machine_config_round_trips_with_fabric():
    from repro.core import config_from_document, config_to_document

    config = apply_fabric(spr_config(num_cores=2), "pooled")
    document = json.loads(json.dumps(config_to_document(config)))
    rebuilt = config_from_document(document)
    assert rebuilt == config
    assert rebuilt.fabric == config.fabric


# -- routing -----------------------------------------------------------------


def test_route_hop_counts():
    pooled = preset_fabric("pooled")
    assert pooled.hops("host0", "dev0") == 1
    two_tier = preset_fabric("two-tier")
    assert two_tier.hops("host0", "dev0") == 2


def test_compiled_routes_are_symmetric():
    engine, pmu = Engine(), CounterRegistry()
    fabric = preset_fabric("two-tier").compile(engine, pmu)
    down = fabric.route("host0", "dev0")
    up = fabric.route("dev0", "host0")
    assert down == tuple(reversed(up))
    assert down[0] == "host0" and down[-1] == "dev0"
    assert down[1:-1] == ("sw0", "sw1")


def test_two_tier_delivery_is_slower_than_one_tier():
    def transit(spec: FabricSpec) -> float:
        engine, pmu = Engine(), CounterRegistry()
        fabric = spec.compile(engine, pmu)
        done = []
        fabric.send("host0", "dev0", 68.0, lambda: done.append(engine.now))
        engine.run()
        assert done
        return done[0]

    assert transit(preset_fabric("two-tier")) > transit(
        preset_fabric("pooled")
    )


# -- forwarding accounting ---------------------------------------------------


def test_fwd_counters_equal_delivered_flits_under_saturation():
    """The acceptance invariant: with a port driven far past its queue
    depth, unc_cxlsw_fwd.* still equals delivered flits exactly (retries
    are counted separately)."""
    engine, pmu = Engine(), CounterRegistry()
    spec = one_switch_spec(bytes_per_cycle=1.0, queue_depth=4)
    fabric = spec.compile(engine, pmu)
    total = 300
    delivered = []
    for i in range(total):
        fabric.send("host0", "dev0", 68.0, lambda i=i: delivered.append(i))
    engine.run()
    assert len(delivered) == total
    switch = fabric.switches["sw0"]
    assert switch.forwarded["dev0"] == total
    assert switch.total_retries > 0
    assert fabric.delivered[("host0", "dev0")] == total
    snap = pmu.snapshot(engine.now)
    assert snap.get(("cxlsw.sw0", "unc_cxlsw_fwd.dev0")) == total
    assert snap.get(("cxlsw.sw0", "unc_cxlsw_retry.dev0")) == (
        switch.retries["dev0"]
    )


def test_retry_counters_monotone_across_snapshots():
    engine, pmu = Engine(), CounterRegistry()
    fabric = one_switch_spec(bytes_per_cycle=1.0, queue_depth=4).compile(
        engine, pmu
    )
    for _ in range(300):
        fabric.send("host0", "dev0", 68.0, lambda: None)
    last = 0.0
    for _ in range(50):
        engine.run(until=engine.now + 200.0)
        current = pmu.snapshot(engine.now).get(
            ("cxlsw.sw0", "unc_cxlsw_retry.dev0"), 0.0
        )
        assert current >= last
        last = current
    assert last > 0


@settings(max_examples=30, deadline=None)
@given(
    sends=st.lists(
        st.tuples(
            st.sampled_from(["host0", "host1"]),
            st.floats(min_value=8.0, max_value=256.0),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_fabric_preserves_fifo_order_per_src_dst(sends):
    """Routing preserves per-(src, dst) FIFO delivery order even under
    credit backpressure, whatever the flit mix."""
    engine, pmu = Engine(), CounterRegistry()
    fabric = one_switch_spec(bytes_per_cycle=2.0, queue_depth=3).compile(
        engine, pmu
    )
    received = {}
    for seq, (src, flit_bytes) in enumerate(sends):
        fabric.send(
            src, "dev0", flit_bytes,
            lambda src=src, seq=seq: received.setdefault(src, []).append(seq),
        )
    engine.run()
    assert sum(len(v) for v in received.values()) == len(sends)
    for order in received.values():
        assert order == sorted(order)


# -- machine integration -----------------------------------------------------


def test_attach_fabric_is_exclusive():
    machine = Machine(spr_config(num_cores=2))
    attach_fabric(machine, preset_fabric("pooled"))
    with pytest.raises(RuntimeError):
        attach_fabric(machine, preset_fabric("pooled"))


def test_attach_fabric_checks_device_count():
    machine = Machine(spr_config(num_cores=2, num_cxl_devices=2))
    with pytest.raises(ValueError, match="device"):
        attach_fabric(machine, preset_fabric("pooled", num_devices=1))


def test_apply_fabric_grows_device_count():
    config = apply_fabric(
        spr_config(num_cores=2), preset_fabric("pooled", num_devices=3)
    )
    assert config.num_cxl_devices == 3
    assert apply_fabric(config, None) is config


def test_primary_host_follows_machine_host_id():
    """The machine plays the fabric host named by its
    ``MachineConfig.host_id`` unless the spec pins ``primary_host``; any
    other injecting host becomes background load."""

    def attach(primary_host: str):
        spec = FabricSpec(
            hosts=(HostSpec("host0", inject_ops=100), HostSpec("hostA")),
            switches=(SwitchSpec("sw0"),),
            devices=("dev0",),
            links=(("host0", "sw0"), ("hostA", "sw0"), ("sw0", "dev0")),
            primary_host=primary_host,
        )
        config = spr_config(num_cores=2, host_id="hostA")
        machine = Machine(apply_fabric(config, spec))
        host_keys = {port.device.host_key for port in machine.m2pcie.values()}
        injectors = [i.host.name for i in machine.fabric.injectors]
        return host_keys, injectors

    assert attach("") == ({"hostA"}, ["host0"])
    assert attach("host0") == ({"host0"}, [])


# -- one host behind one switch ----------------------------------------------


def run_cxl(fabric: Optional[FabricSpec], workload=None) -> Machine:
    """Run one core's CXL-bound workload to completion behind ``fabric``
    (``None``: direct attach), striped over the fabric's devices."""
    machine = Machine(apply_fabric(spr_config(num_cores=2), fabric))
    if workload is None:
        workload = RandomAccess(
            num_ops=2000, working_set_bytes=1 << 22, read_ratio=0.9,
            gap=2.0, seed=5,
        )
    node_ids = [n.node_id for n in machine.address_space.cxl_nodes]
    if len(node_ids) == 1:
        workload.install(machine, node_ids[0])
    else:
        workload.install_striped(machine, node_ids)
    machine.pin(0, iter(workload))
    machine.run(max_events=40_000_000)
    assert machine.all_idle
    return machine


def _cxl_latency(machine) -> float:
    snap = machine.snapshot_counters()
    count = snap.get(("core0", "lat_sample.CXL_DRAM.count"), 0.0)
    total = snap.get(("core0", "lat_sample.CXL_DRAM.sum"), 0.0)
    assert count > 0
    return total / count


def _root_port_inserts(snap) -> float:
    return sum(
        v for (s, e), v in snap.items() if e == "unc_m2p_rxc_inserts.all"
    )


def test_one_host_switch_adds_latency():
    direct = _cxl_latency(run_cxl(None))
    assert _cxl_latency(run_cxl(one_host_spec())) > direct + 50.0


def test_one_host_switch_conserves_flits():
    machine = run_cxl(one_host_spec())
    inserts = _root_port_inserts(machine.snapshot_counters())
    assert inserts > 0
    # Everything the root port sent transited the switch, both ways.
    assert machine.fabric.switches["sw0"].forwarded == {
        "host0": inserts, "dev0": inserts,
    }


def test_one_host_switch_port_counters_in_pmu():
    machine = run_cxl(one_host_spec())
    switch = machine.fabric.switches["sw0"]
    snap = machine.snapshot_counters()
    for port in ("host0", "dev0"):
        assert snap[("cxlsw.sw0", f"unc_cxlsw_fwd.{port}")] == (
            switch.forwarded[port]
        )
        assert ("cxlsw.sw0", f"unc_cxlsw_occupancy.{port}") in snap


def test_one_host_switch_routes_multiple_devices():
    machine = run_cxl(one_host_spec(num_devices=2))
    forwarded = machine.fabric.switches["sw0"].forwarded
    assert forwarded["dev0"] > 0 and forwarded["dev1"] > 0
    snap = machine.snapshot_counters()
    per_device = [
        snap.get((f"m2pcie{n.node_id}", "unc_m2p_rxc_inserts.all"), 0.0)
        for n in machine.address_space.cxl_nodes
    ]
    assert len(per_device) == 2 and all(v > 0 for v in per_device)


def test_one_host_switch_accounting_under_saturation():
    """unc_cxlsw_fwd.* counts delivered flits, never attempts: a port
    driven past queue_depth parks its flits without re-counting them, and
    the retry counters tick instead."""
    machine = run_cxl(
        one_host_spec(bytes_per_cycle=1.0, queue_depth=2),
        SequentialStream(
            num_ops=1500, working_set_bytes=1 << 21, gap=0.5, seed=11,
        ),
    )
    switch = machine.fabric.switches["sw0"]
    snap = machine.snapshot_counters()
    # Exactly one forward per flit the root port sent, despite retries.
    assert switch.forwarded["dev0"] == _root_port_inserts(snap)
    assert switch.retries["dev0"] > 0
    for port in ("host0", "dev0"):
        assert snap[("cxlsw.sw0", f"unc_cxlsw_retry.{port}")] == (
            switch.retries[port]
        )
        assert snap[("cxlsw.sw0", f"unc_cxlsw_fwd.{port}")] == (
            switch.forwarded[port]
        )


def test_profiler_runs_unchanged_over_switched_fabric():
    """PathFinder needs no changes: the switch is just more uncore latency
    visible through the same counters."""
    machine = Machine(apply_fabric(spr_config(num_cores=2), one_host_spec()))
    workload = SequentialStream(
        num_ops=4000, working_set_bytes=1 << 21, read_ratio=0.8, seed=7,
    )
    app = AppSpec(workload=workload, core=0,
                  membind=machine.cxl_node.node_id)
    result = PathFinder(
        machine, ProfileSpec(apps=[app], epoch_cycles=25_000.0)
    ).run()
    assert result.num_epochs >= 1
    assert result.final.path_map.cxl_hits() > 0
    shares = result.final.stalls.shares("DRd")
    # The fabric time lands in the FlexBus+MC / DIMM buckets.
    assert shares["FlexBus+MC"] + shares["CXL_DIMM"] > 0.3


def _fabric_session(inject_ops: int):
    spec = FabricSpec(
        hosts=(
            HostSpec("host0"),
            HostSpec("host1", inject_ops=inject_ops, inject_gap=4.0),
        ),
        switches=(SwitchSpec("sw0", bytes_per_cycle=4.0),),
        devices=("dev0",),
        links=(("host0", "sw0"), ("host1", "sw0"), ("sw0", "dev0")),
    )
    machine = Machine(apply_fabric(spr_config(num_cores=2), spec))
    workload = SequentialStream(
        num_ops=2000, working_set_bytes=1 << 20, gap=2.0, seed=3,
    )
    app = AppSpec(workload=workload, core=0,
                  membind=machine.cxl_node.node_id)
    result = PathFinder(
        machine, ProfileSpec(apps=[app], epoch_cycles=25_000.0)
    ).run()
    return machine, result, _cxl_latency(machine)


def test_pooling_neighbour_inflates_cxl_latency():
    """A neighbour host hammering the shared pool slows the primary
    host's CXL loads - the cross-host interference direct attach can
    never show."""
    _machine, _result, quiet = _fabric_session(inject_ops=0)
    machine, _result, noisy = _fabric_session(inject_ops=30_000)
    assert noisy > quiet + 25.0
    assert machine.fabric.injectors[0].sent > 0


def test_fabric_counters_reach_pmu_and_analyzer():
    machine, result, _lat = _fabric_session(inject_ops=10_000)
    snap = machine.snapshot_counters()
    fwd = {
        (s, e): v for (s, e), v in snap.items()
        if s == "cxlsw.sw0" and e.startswith("unc_cxlsw_fwd.")
    }
    assert fwd and any(v > 0 for v in fwd.values())
    assert snap.get(("fabric", "host_injected.host1"), 0.0) > 0
    report = result.final.queues
    assert report.fabric_ports
    assert {p.switch for p in report.fabric_ports} == {"sw0"}
    assert report.fabric_diagnosis() is not None


def test_direct_attach_has_no_fabric_diagnosis():
    machine = Machine(spr_config(num_cores=2))
    workload = SequentialStream(
        num_ops=1500, working_set_bytes=1 << 20, gap=2.0, seed=3,
    )
    app = AppSpec(workload=workload, core=0,
                  membind=machine.cxl_node.node_id)
    result = PathFinder(
        machine, ProfileSpec(apps=[app], epoch_cycles=25_000.0)
    ).run()
    report = result.final.queues
    assert not report.fabric_ports
    assert report.fabric_diagnosis() is None


# -- the acceptance A/B campaign --------------------------------------------


def test_campaign_distinguishes_fabric_congestion_from_device_bound():
    """The acceptance criterion: one workload, two topologies, run
    through api.run_many - the report names the fabric in one scenario
    and the device in the other."""
    from repro import RunOptions, api
    from repro.core.report import render_fabric
    from repro.exec import congestion_ab_jobs

    def total(counters, scope_prefix, event_prefix) -> float:
        return sum(
            v for (s, e), v in counters.items()
            if s.startswith(scope_prefix) and e.startswith(event_prefix)
        )

    jobs = congestion_ab_jobs("fft", ops=2000)
    campaign = api.run_many(jobs, parallel=False,
                            options=RunOptions(cache=False, retries=0))
    assert all(record.ok for record in campaign.jobs)
    verdicts, verdict_lines, retries = {}, {}, {}
    for record, result in zip(campaign.jobs, campaign.results):
        report = result.final.queues
        diagnosis = report.fabric_diagnosis()
        assert diagnosis is not None
        verdicts[record.tag] = diagnosis
        verdict_lines[record.tag] = [
            line for line in render_fabric(report).splitlines()
            if line.startswith(f"verdict: {diagnosis.verdict} ")
        ]
        # Switch ports forwarded flits and the neighbour host injected.
        counters = api.counters(result)
        assert total(counters, "cxlsw.", "unc_cxlsw_fwd.") > 0
        assert total(counters, "fabric", "host_injected.") > 0
        retries[record.tag] = total(counters, "cxlsw.", "unc_cxlsw_retry.")
    assert verdicts["fabric-congested"].verdict == "fabric-congested"
    assert verdicts["fabric-congested"].congested_port.switch == "sw0"
    assert verdicts["device-bound"].verdict == "device-bound"
    # The saturated switch throttled, and the report names its port.
    assert retries["fabric-congested"] > 0
    assert len(verdict_lines["device-bound"]) == 1
    (congested_line,) = verdict_lines["fabric-congested"]
    assert " at sw0:" in congested_line


def test_run_options_fabric_plumbs_through():
    from repro import api
    from repro.options import RunOptions

    workload = SequentialStream(
        num_ops=800, working_set_bytes=1 << 20, gap=2.0, seed=3,
    )
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=1)],
        epoch_cycles=25_000.0,
    )
    result = api.run(spec, options=RunOptions(fabric="pooled"))
    assert result.final.queues.fabric_ports

    with pytest.raises(ValueError):
        api.run(spec, options=RunOptions(fabric="no-such-preset"))
