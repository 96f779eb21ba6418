"""Tests for PathFinder's four techniques over real profiled sessions."""

import pytest

from repro.core import (
    FAMILIES,
    PFBuilder,
    PFEstimator,
    PFAnalyzer,
    PFMaterializer,
    STALL_COMPONENTS,
    render_epoch,
    render_session,
)
from repro.core.builder import CORE_COMPONENTS, UNCORE_COMPONENTS


# -- session shape ------------------------------------------------------------


def test_session_produces_epochs_and_flows(cxl_session):
    _machine, _profiler, result = cxl_session
    assert result.num_epochs >= 2
    assert result.final is not None
    assert len(result.flows) == 1
    flow = result.flows[0]
    assert flow.is_cxl
    assert flow.snapshot_ids  # snapshots were attached


def test_snapshot_deltas_are_contiguous(cxl_session):
    _machine, _profiler, result = cxl_session
    times = [(e.snapshot.t_start, e.snapshot.t_end) for e in result.epochs]
    for (s0, e0), (s1, _e1) in zip(times, times[1:]):
        assert e0 == s1
        assert e0 > s0


def test_counter_deltas_sum_to_totals(cxl_session):
    machine, _profiler, result = cxl_session
    total = sum(
        e.snapshot.get("core0", "mem_load_retired.l1_miss")
        for e in result.epochs
    )
    final = machine.pmu.get("core0", "mem_load_retired.l1_miss")
    assert total == pytest.approx(final)


# -- PFBuilder ---------------------------------------------------------------


def test_path_map_shape(cxl_session):
    _m, _p, result = cxl_session
    pm = result.final.path_map
    assert set(pm.per_core[0]) == set(FAMILIES)
    for family in FAMILIES:
        assert set(pm.per_core[0][family]) == set(CORE_COMPONENTS)
        assert set(pm.uncore[family]) == set(UNCORE_COMPONENTS)


def test_path_map_blind_spots_match_paper(cxl_session):
    """Section 5.9: RFO and DWr are not observable at L1D/LFB."""
    _m, _p, result = cxl_session
    pm = result.final.path_map
    assert pm.core_hits(0, "RFO", "L1D") is None
    assert pm.core_hits(0, "RFO", "LFB") is None
    assert pm.core_hits(0, "DWr", "L1D") is None
    assert pm.core_hits(0, "DRd", "L1D") is not None


def test_cxl_bound_app_hits_cxl_memory(cxl_session):
    _m, _p, result = cxl_session
    # Across the whole run, most uncore serves come from CXL.
    total_cxl = sum(e.path_map.cxl_hits() for e in result.epochs)
    total_local = sum(
        e.path_map.uncore_hits(f, "local_DRAM")
        for e in result.epochs
        for f in FAMILIES
    )
    assert total_cxl > 0
    assert total_cxl > total_local


def test_local_bound_app_does_not_hit_cxl(local_session):
    _m, _p, result = local_session
    assert sum(e.path_map.cxl_hits() for e in result.epochs) == 0


def test_family_share_sums_to_one_or_zero(cxl_session):
    _m, _p, result = cxl_session
    for e in result.epochs:
        share = e.path_map.family_share_at_cxl()
        total = sum(share.values())
        assert total == pytest.approx(1.0) or total == 0.0


def test_cxl_traffic_recorded_from_m2pcie(cxl_session):
    _m, _p, result = cxl_session
    loads = sum(
        t["loads"] for e in result.epochs for t in e.path_map.cxl_traffic.values()
    )
    assert loads > 0


def test_hot_path_queries(cxl_session):
    _m, _p, result = cxl_session
    pm = result.final.path_map
    assert pm.hot_path_core(0) in FAMILIES
    assert pm.hot_path_uncore() in FAMILIES


# -- PFEstimator ---------------------------------------------------------------


def test_stall_breakdown_components(cxl_session):
    _m, _p, result = cxl_session
    stalls = result.final.stalls
    agg = stalls.aggregate("DRd")
    assert set(agg) == set(STALL_COMPONENTS)
    assert all(v >= 0 for v in agg.values())


def test_stall_shares_normalised(cxl_session):
    _m, _p, result = cxl_session
    for e in result.epochs:
        for family in FAMILIES:
            shares = e.stalls.shares(family)
            total = sum(shares.values())
            assert total == pytest.approx(1.0) or total == 0.0


def test_cxl_run_attributes_stalls_somewhere(cxl_session):
    _m, _p, result = cxl_session
    total = sum(
        sum(e.stalls.aggregate("DRd").values()) for e in result.epochs
    )
    assert total > 0


def test_local_run_attributes_no_cxl_stalls(local_session):
    _m, _p, result = local_session
    for e in result.epochs:
        for family in FAMILIES:
            assert sum(e.stalls.aggregate(family).values()) == pytest.approx(
                0.0, abs=1e-6
            )


def test_uncore_dominates_cxl_stalls(cxl_session):
    """Figure 6's shape: FlexBus+MC and the DIMM carry the bulk of the
    CXL-induced DRd stall, and stalls diminish toward the core."""
    _m, _p, result = cxl_session
    agg = {c: 0.0 for c in STALL_COMPONENTS}
    for e in result.epochs:
        for c, v in e.stalls.aggregate("DRd").items():
            agg[c] += v
    uncore = agg["FlexBus+MC"] + agg["CXL_DIMM"] + agg["CHA"]
    incore = agg["L1D"] + agg["LFB"] + agg["L2"] + agg["SB"]
    assert uncore > 0


# -- PFAnalyzer ----------------------------------------------------------------


def test_analyzer_reports_culprit(cxl_session):
    _m, _p, result = cxl_session
    report = result.final.queues
    culprit = report.culprit()
    assert culprit is not None
    assert culprit.queue_length > 0
    assert culprit.component in (
        "L1D", "LFB", "L2", "LLC", "FlexBus+MC"
    )


def test_queue_lengths_nonnegative(cxl_session):
    _m, _p, result = cxl_session
    for e in result.epochs:
        for est in e.queues.estimates:
            assert est.queue_length >= 0
            assert est.arrival_rate >= 0
            assert est.delay >= 0


def test_by_component_aggregation(cxl_session):
    _m, _p, result = cxl_session
    report = result.final.queues
    by_component = report.by_component("DRd")
    manual = sum(
        e.queue_length for e in report.estimates if e.path == "DRd"
    )
    assert sum(by_component.values()) == pytest.approx(manual)


def test_flexbus_queue_only_for_cxl(local_session):
    _m, _p, result = local_session
    for e in result.epochs:
        assert e.queues.queue("FlexBus+MC", "DRd") == 0.0


# -- PFMaterializer --------------------------------------------------------------


def test_materializer_ingested_all_epochs(cxl_session):
    _m, _p, result = cxl_session
    materializer = PFMaterializer.from_result(result)
    assert materializer.snapshots_ingested == result.num_epochs


def test_locality_workflow(cxl_session):
    _m, _p, result = cxl_session
    pid = result.flows[0].pid
    report = PFMaterializer.from_result(result).locality(pid, component="CXL")
    assert len(report.hits_series) == result.num_epochs
    assert report.windows
    assert report.stable_phase_length >= 1
    assert len(report.trend) == len(report.hits_series)


def test_locality_unknown_pid_raises(cxl_session):
    _m, _p, result = cxl_session
    with pytest.raises(ValueError):
        PFMaterializer.from_result(result).locality(424242)


def test_flexbus_utilization_series(cxl_session):
    machine, _p, result = cxl_session
    node = machine.cxl_node.node_id
    series = PFMaterializer.from_result(result).flexbus_utilization_series(
        node)
    assert len(series) == result.num_epochs
    assert any(v > 0 for v in series)


# -- reports --------------------------------------------------------------------


def test_render_functions_produce_text(cxl_session):
    _m, _p, result = cxl_session
    text = render_session(result)
    assert "PathFinder session" in text
    assert "mFlow" in text
    epoch_text = render_epoch(result.final)
    assert "Path map" in epoch_text
    assert "stall breakdown" in epoch_text
    assert "culprit" in epoch_text


# -- aggregated mode ------------------------------------------------------------


def _lbm_spec(mode, node, num_ops=3000):
    from repro.core import AppSpec, ProfileSpec
    from repro.workloads import build_app

    return ProfileSpec(
        apps=[AppSpec(workload=build_app("519.lbm_r", num_ops=num_ops, seed=1),
                      core=0, membind=node)],
        epoch_cycles=5_000.0, mode=mode,
    )


@pytest.mark.parametrize("fidelity", ["exact", "adaptive"])
def test_aggregated_totals_equal_continuous_totals(fidelity):
    """One cumulative report covers the whole session, warps included."""
    from repro import RunOptions, api
    from repro.core import ProfilingMode
    from repro.exec import cxl_node_id
    from repro.sim import Machine, spr_config

    config = spr_config()
    results = {
        mode: api.run(_lbm_spec(mode, cxl_node_id(config)),
                      machine=Machine(config),
                      options=RunOptions(fidelity=fidelity))
        for mode in ProfilingMode
    }
    continuous = results[ProfilingMode.CONTINUOUS]
    aggregated = results[ProfilingMode.AGGREGATED]
    assert continuous.num_epochs > 1 and not aggregated.epochs
    totals = api.counters(aggregated)
    assert totals == api.counters(continuous)
    assert sum(value for (_, event), value in totals.items()
               if event == "app.ops_completed") == 3000
    final = aggregated.final.snapshot
    assert (final.t_start, final.t_end) == (0.0, aggregated.total_cycles)
    assert {f.flow_id for f in final.flows} == \
        {f.flow_id for f in aggregated.flows}
    # The cumulative epoch is analysed like any other.
    assert aggregated.final.path_map.cxl_hits() == sum(
        e.path_map.cxl_hits() for e in continuous.epochs)
    if fidelity == "adaptive":
        assert aggregated.warp is not None and final.warped
