"""Unit tests for the PMU registry, event catalog and views."""

import pytest

from repro.pmu import (
    ALL_EVENTS,
    CHAPMUView,
    CorePMUView,
    CounterRegistry,
    EVENTS_BY_NAME,
    IMCView,
    M2PCIeView,
    catalog_size,
    core_ids,
    cxl_node_ids,
    delta,
    events_for_path,
    events_in_group,
)


# -- registry ----------------------------------------------------------------


def test_add_and_get():
    reg = CounterRegistry()
    reg.add("core0", "x", 2.0)
    reg.add("core0", "x", 3.0)
    assert reg.get("core0", "x") == 5.0
    assert reg.get("core1", "x") == 0.0


def test_set_overwrites():
    reg = CounterRegistry()
    reg.add("a", "e", 10.0)
    reg.set("a", "e", 1.0)
    assert reg.get("a", "e") == 1.0


def test_scoped_and_matching():
    reg = CounterRegistry()
    reg.add("core0", "l2.hit")
    reg.add("core0", "l2.miss")
    reg.add("core1", "l2.hit")
    assert reg.scoped("core0") == {"l2.hit": 1.0, "l2.miss": 1.0}
    assert len(reg.matching("l2.")) == 3


def test_sum_across_scopes():
    reg = CounterRegistry()
    reg.add("imc0.ch0", "cas", 2.0)
    reg.add("imc0.ch1", "cas", 3.0)
    assert reg.sum("cas") == 5.0
    assert reg.sum("cas", scopes=["imc0.ch0"]) == 2.0


def test_sync_hooks_run_before_snapshot():
    reg = CounterRegistry()
    reg.on_sync(lambda now: reg.set("x", "flushed_at", now))
    snap = reg.snapshot(42.0)
    assert snap[("x", "flushed_at")] == 42.0


def test_delta_between_snapshots():
    before = {("a", "e"): 1.0}
    after = {("a", "e"): 4.0, ("b", "f"): 2.0}
    d = delta(after, before)
    assert d[("a", "e")] == 3.0
    assert d[("b", "f")] == 2.0


def test_scopes_and_events_listing():
    reg = CounterRegistry()
    reg.add("core1", "b")
    reg.add("core0", "a")
    assert reg.scopes() == ["core0", "core1"]
    assert reg.events("core0") == ["a"]


# -- event catalog -----------------------------------------------------------


def test_catalog_has_unique_names():
    names = [e.name for e in ALL_EVENTS]
    assert len(set(names)) == len(EVENTS_BY_NAME)


def test_catalog_covers_all_four_groups():
    groups = {e.group for e in ALL_EVENTS}
    assert groups == {"core", "cha", "uncore", "cxl"}


def test_catalog_size_is_substantial():
    # The paper identifies 232 usable counters; our emulated PMU exposes
    # a comparable catalog.
    assert catalog_size() >= 150


def test_events_for_each_path_family():
    for family in ("DRd", "RFO", "HWPF", "DWr"):
        events = events_for_path(family)
        assert events, f"no events observe {family}"


def test_events_in_group_filters():
    assert all(e.group == "cxl" for e in events_in_group("cxl"))
    assert events_in_group("cxl")


def test_key_paper_counters_present():
    for name in (
        "resource_stalls.sb",
        "exe_activity.bound_on_stores",
        "mem_load_retired.l1_fb_hit" if False else "mem_load_retired.fb_hit",
        "l1d_pend_miss.fb_full",
        "unc_cha_tor_inserts.ia_drd.miss_cxl",
        "unc_m2p_txc_inserts.bl",
        "unc_cxlcm_rxc_pack_buf_inserts.mem_req",
        "unc_m_rpq_cycles_ne",
    ):
        assert name in EVENTS_BY_NAME, name


# -- views -----------------------------------------------------------------


def _delta():
    return {
        ("core0", "mem_load_retired.l1_hit"): 100.0,
        ("core0", "mem_load_retired.l1_miss"): 50.0,
        ("core0", "mem_load_retired.fb_hit"): 10.0,
        ("core0", "l2_rqsts.demand_data_rd_hit"): 30.0,
        ("core0", "l2_rqsts.demand_data_rd_miss"): 20.0,
        ("core0", "l2_rqsts.rfo_hit"): 5.0,
        ("core0", "l2_rqsts.rfo_miss"): 2.0,
        ("core0", "l2_rqsts.pf_hit"): 7.0,
        ("core0", "l2_rqsts.swpf_hit"): 1.0,
        ("core0", "ORO.demand_data_rd"): 4000.0,
        ("core0", "offcore_requests.demand_data_rd"): 20.0,
        ("core0", "lat_sample.CXL_DRAM.sum"): 7000.0,
        ("core0", "lat_sample.CXL_DRAM.count"): 10.0,
        ("core0", "ocr.demand_data_rd.any_response"): 20.0,
        ("core0", "ocr.demand_data_rd.cxl_dram"): 15.0,
        ("core1", "mem_load_retired.l1_hit"): 1.0,
        ("cha0", "unc_cha_tor_inserts.ia_drd.total"): 20.0,
        ("cha0", "unc_cha_tor_inserts.ia_drd.miss_cxl"): 15.0,
        ("cha0", "unc_cha_tor_occupancy.ia_drd.total"): 9000.0,
        ("imc0.ch0", "unc_m_rpq_inserts"): 3.0,
        ("imc0.ch1", "unc_m_rpq_inserts"): 4.0,
        ("m2pcie1", "unc_m2p_txc_inserts.bl"): 15.0,
        ("cxl1", "unc_cxlcm_rxc_pack_buf_inserts.mem_req"): 15.0,
    }


def test_core_view_basic_metrics():
    view = CorePMUView(_delta(), 0)
    assert view.l1_hits == 100.0
    assert view.l1_misses == 50.0
    assert view.fb_hits == 10.0
    assert view.l2_hits("DRd") == 30.0
    assert view.l2_misses("DRd") == 20.0
    assert view.l2_hits("HWPF") == 8.0  # pf + swpf
    assert view.avg_demand_read_latency == pytest.approx(200.0)


def test_core_view_latency_sample():
    view = CorePMUView(_delta(), 0)
    mean, count = view.latency_sample("CXL_DRAM")
    assert mean == pytest.approx(700.0)
    assert count == 10.0
    assert view.latency_sample("local_DRAM") == (0.0, 0.0)


def test_core_view_unknown_path_raises():
    view = CorePMUView(_delta(), 0)
    with pytest.raises(KeyError):
        view.l2_hits("DWr")


def test_cha_view_tor_metrics():
    view = CHAPMUView(_delta(), 0)
    assert view.tor_inserts("DRd") == 20.0
    assert view.tor_inserts("DRd", "miss_cxl") == 15.0
    assert view.avg_tor_latency("DRd") == pytest.approx(450.0)
    assert view.avg_tor_latency("RFO") == 0.0


def test_imc_view_aggregates_channels():
    view = IMCView(_delta(), 0)
    assert len(view.channels) == 2
    assert view.rpq_inserts == 7.0


def test_m2pcie_view():
    view = M2PCIeView(_delta(), 1)
    assert view.data_responses == 15.0
    assert view.write_acks == 0.0


def test_scope_discovery():
    d = _delta()
    assert core_ids(d) == [0, 1]
    assert cxl_node_ids(d) == [1]


# -- sampling mode (section 3.1's second counter mode) ----------------------------


def test_sampler_fires_on_threshold_crossing():
    reg = CounterRegistry()
    fired = []
    reg.arm_sampler("core0", "e", threshold=10.0,
                    callback=lambda v: fired.append(v))
    for _ in range(9):
        reg.add("core0", "e")
    assert fired == []
    reg.add("core0", "e")
    assert len(fired) == 1


def test_sampler_periodic_rearm():
    reg = CounterRegistry()
    fired = []
    reg.arm_sampler("s", "e", 5.0, lambda v: fired.append(v))
    reg.add("s", "e", 23.0)  # crosses 5, 10, 15, 20 in one bump
    assert len(fired) == 4


def test_sampler_disarm():
    reg = CounterRegistry()
    fired = []
    sampler = reg.arm_sampler("s", "e", 2.0, lambda v: fired.append(v))
    reg.add("s", "e", 3.0)
    sampler.disarm()
    reg.add("s", "e", 10.0)
    assert len(fired) == 1


def test_sampler_only_watches_its_counter():
    reg = CounterRegistry()
    fired = []
    reg.arm_sampler("s", "e", 1.0, lambda v: fired.append(v))
    reg.add("s", "other", 100.0)
    reg.add("other", "e", 100.0)
    assert fired == []


def test_sampler_rejects_bad_threshold():
    import pytest as _pytest

    reg = CounterRegistry()
    with _pytest.raises(ValueError):
        reg.arm_sampler("s", "e", 0.0, lambda v: None)


def test_sync_hooks_run_once_per_timestamp_and_state():
    """A mid-epoch reader syncing at the same cycle as the epoch-boundary
    snapshot must not re-run the flush hooks: a non-idempotent integral
    flush would be added twice and any armed sampler would observe the
    inflated value (regression for the snapshot/sync ordering bug)."""
    reg = CounterRegistry()
    calls = []

    def flush(now):
        calls.append(now)
        # Deliberately non-idempotent: re-running at the same timestamp
        # visibly double-counts.
        reg.add("m2p", "occupancy_integral", 7.0)

    reg.on_sync(flush)
    fired = []
    reg.arm_sampler("m2p", "occupancy_integral", 10.0,
                    lambda v: fired.append(v))

    reg.sync(100.0)              # mid-epoch reader (e.g. tiering engine)
    snap = reg.snapshot(100.0)   # epoch-boundary snapshot, same cycle
    reg.sync(100.0)              # second reader at the same cycle
    assert calls == [100.0]
    assert snap[("m2p", "occupancy_integral")] == 7.0
    assert fired == []           # below threshold; nothing fired early

    # Counter activity at the same timestamp changes state, so the next
    # sync flushes again - and the threshold crossing fires exactly once
    # even though two more readers sync afterwards.
    reg.add("m2p", "occupancy_integral", 1.0)
    reg.snapshot(100.0)
    reg.snapshot(100.0)
    assert calls == [100.0, 100.0]
    assert len(fired) == 1

    # A later epoch flushes once more; still exactly one fire per crossing.
    reg.snapshot(200.0)
    reg.sync(200.0)
    assert calls == [100.0, 100.0, 200.0]
    assert reg.get("m2p", "occupancy_integral") == 22.0
    assert len(fired) == 2


def test_counter_docs_match_event_catalog():
    """docs/COUNTERS.md is what scripts/gen_counter_docs.py renders."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "gen_counter_docs", root / "scripts" / "gen_counter_docs.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    committed = (root / "docs" / "COUNTERS.md").read_text()
    assert script.render() == committed, (
        "docs/COUNTERS.md is stale: run python scripts/gen_counter_docs.py"
    )
