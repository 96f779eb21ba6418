"""Tests for the session A/B comparison API."""

import pytest

from repro.core import (
    AppSpec,
    MetricDelta,
    PathFinder,
    ProfileSpec,
    ProfilingMode,
    compare_sessions,
    render_diff,
)
from repro.sim import Machine, spr_config
from repro.tiering import TPP, TPPConfig
from repro.workloads import HotColdAccess


def _tpp_session(enabled: bool):
    machine = Machine(spr_config(num_cores=2))
    workload = HotColdAccess(
        num_ops=8000, working_set_bytes=3 << 20, hot_probability=0.9,
        read_ratio=0.5, gap=3.0, seed=21,
    )
    TPP(machine, TPPConfig(epoch_cycles=10_000.0, promote_per_epoch=128,
                           hot_threshold=1.5), enabled=enabled)
    app = AppSpec(
        workload=workload, core=0,
        interleave=(machine.local_node.node_id, machine.cxl_node.node_id, 0.5),
    )
    return PathFinder(
        machine, ProfileSpec(apps=[app], epoch_cycles=25_000.0, max_epochs=80)
    ).run()


@pytest.fixture(scope="module")
def tpp_diff():
    baseline = _tpp_session(False)
    treatment = _tpp_session(True)
    return compare_sessions(baseline, treatment)


def test_metric_delta_arithmetic():
    metric = MetricDelta("m", 100.0, 150.0)
    assert metric.ratio == pytest.approx(1.5)
    assert metric.change_pct == pytest.approx(50.0)
    zero = MetricDelta("z", 0.0, 5.0)
    assert zero.ratio == float("inf")


def test_diff_detects_tpp_speedup(tpp_diff):
    assert tpp_diff.speedup() > 1.1


def test_diff_shows_serve_tier_shift(tpp_diff):
    drd = tpp_diff.serve_shift["DRd"]
    assert drd["cxl_dram"].treatment < drd["cxl_dram"].baseline
    assert drd["local_dram"].treatment > drd["local_dram"].baseline


def test_diff_cxl_traffic_collapses(tpp_diff):
    assert tpp_diff.cxl_traffic is not None
    assert tpp_diff.cxl_traffic.ratio < 0.7


def test_render_diff_is_readable(tpp_diff):
    text = render_diff(tpp_diff)
    assert "speedup" in text
    assert "cxl_dram" in text
    assert "CXL DIMM traffic" in text


def test_diff_metrics_enumeration(tpp_diff):
    names = [m.name for m in tpp_diff.metrics()]
    assert "runtime_cycles" in names
    assert any(name.startswith("DRd.") for name in names)


@pytest.fixture(scope="module")
def lbm_diffs():
    """Local vs CXL 519.lbm_r (1,500 ops, seed 1) diffed in both modes."""
    from repro import api
    from repro.exec import cxl_node_id, local_node_id
    from repro.workloads import build_app

    config = spr_config()

    def session(mode, node):
        app = AppSpec(workload=build_app("519.lbm_r", num_ops=1500, seed=1),
                      core=0, membind=node)
        return api.run(ProfileSpec(apps=[app], epoch_cycles=5_000.0,
                                   mode=mode))

    return {
        mode: compare_sessions(session(mode, local_node_id(config)),
                               session(mode, cxl_node_id(config)))
        for mode in ProfilingMode
    }


def test_aggregated_twins_diff_like_continuous_twins(lbm_diffs):
    """compare_sessions reads an aggregated session's cumulative epoch."""
    continuous = lbm_diffs[ProfilingMode.CONTINUOUS]
    aggregated = lbm_diffs[ProfilingMode.AGGREGATED]
    assert continuous.cxl_traffic.treatment > 0
    assert continuous.serve_shift["HWPF"]["cxl_dram"].treatment > 0
    assert aggregated.serve_shift == continuous.serve_shift
    assert aggregated.cxl_traffic == continuous.cxl_traffic


def test_aggregated_twins_report_stall_shape(lbm_diffs):
    """The stall metrics read the final epoch when no epochs are kept."""
    for mode, diff in lbm_diffs.items():
        assert diff.stall_uncore_fraction is not None, mode
        assert diff.culprit_queue is not None, mode
        assert diff.stall_uncore_fraction.baseline == 0.0
        assert diff.stall_uncore_fraction.treatment > 0.1
        assert diff.culprit_queue.treatment > 2 * diff.culprit_queue.baseline
    aggregated = lbm_diffs[ProfilingMode.AGGREGATED]
    # The whole session as one epoch (recorded values).
    assert aggregated.stall_uncore_fraction.treatment == pytest.approx(
        0.1657, abs=1e-3)
    assert aggregated.culprit_queue.baseline == pytest.approx(6.09, abs=0.01)
    assert aggregated.culprit_queue.treatment == pytest.approx(26.62,
                                                               abs=0.01)
    text = render_diff(aggregated)
    assert "DRd stall uncore share" in text
    assert "late culprit queue" in text
