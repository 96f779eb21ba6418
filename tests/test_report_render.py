"""Edge-case tests for the report renderers."""

import pytest

from repro.core import (
    PFBuilder,
    PFEstimator,
    PFAnalyzer,
    render_path_map,
    render_queues,
    render_stall_breakdown,
)
from repro.core.snapshot import Snapshot


def empty_snapshot():
    return Snapshot(t_start=0.0, t_end=1000.0, delta={})


def test_render_empty_path_map():
    path_map = PFBuilder().build(empty_snapshot())
    text = render_path_map(path_map, core_id=0)
    assert "Path map" in text
    assert "hot path" in text


def test_render_empty_stall_breakdown():
    stalls = PFEstimator().breakdown(empty_snapshot())
    text = render_stall_breakdown(stalls)
    assert "stall breakdown" in text
    # All-zero shares render as 0.0% without crashing.
    assert "0.0%" in text


def test_render_empty_queue_report():
    report = PFAnalyzer().analyze(empty_snapshot())
    text = render_queues(report)
    assert "Queue analysis" in text
    assert report.culprit() is None


def test_builder_handles_partial_delta():
    snapshot = Snapshot(
        t_start=0.0, t_end=100.0,
        delta={("core0", "mem_load_retired.l1_hit"): 5.0},
    )
    path_map = PFBuilder().build(snapshot)
    assert path_map.core_hits(0, "DRd", "L1D") == 5.0
    assert path_map.cxl_hits() == 0.0
    text = render_path_map(path_map, core_id=0)
    assert "5" in text


def test_estimator_handles_core_without_cxl():
    snapshot = Snapshot(
        t_start=0.0, t_end=100.0,
        delta={
            ("core0", "memory_activity.stalls_l1d_miss"): 50.0,
            ("core0", "ocr.demand_data_rd.any_response"): 10.0,
            ("core0", "ocr.demand_data_rd.local_dram"): 10.0,
        },
    )
    stalls = PFEstimator().breakdown(snapshot)
    # No CXL traffic -> nothing attributed anywhere.
    for family in ("DRd", "RFO", "HWPF", "DWr"):
        assert sum(stalls.aggregate(family).values()) == 0.0


def test_analyzer_zero_duration_snapshot():
    snapshot = Snapshot(t_start=5.0, t_end=5.0, delta={})
    report = PFAnalyzer().analyze(snapshot)
    assert report.estimates == [] or all(
        e.queue_length >= 0 for e in report.estimates
    )


def _job(index, tag, status="failed", failure="error", error=None):
    from repro.exec.runner import JobRecord

    return JobRecord(index=index, tag=tag, key=f"k{index}", status=status,
                     failure=None if status in ("ok", "cache_hit") else failure,
                     error=error, attempts=1, wall_time=0.5)


def test_render_campaign_empty_says_so():
    from repro.core.report import render_campaign
    from repro.exec.runner import CampaignResult

    campaign = CampaignResult(jobs=[], results=[])
    assert render_campaign(campaign) == "campaign: no jobs to report"


def test_render_campaign_all_failed_is_failure_summary():
    from repro.core.report import render_campaign
    from repro.exec.runner import CampaignResult

    campaign = CampaignResult(
        jobs=[
            _job(0, "a@cxl", failure="timeout"),
            _job(1, "b@cxl", failure="error",
                 error="Traceback...\nValueError: boom"),
        ],
        results=[None, None],
        wall_time=1.25,
    )
    text = render_campaign(campaign)
    assert "campaign FAILED: 0/2 jobs succeeded" in text
    assert "timeout" in text
    assert "ValueError: boom" in text
    assert "campaign: 0/2 ok" in text
    # Must not render the success-style table header.
    assert "status     attempts" not in text


def test_render_campaign_mixed_keeps_table():
    from repro.core.report import render_campaign
    from repro.exec.runner import CampaignResult

    campaign = CampaignResult(
        jobs=[_job(0, "a@cxl", status="ok"), _job(1, "b@cxl")],
        results=[None, None],
    )
    text = render_campaign(campaign)
    assert "1/2 ok" in text


def test_render_campaign_reports_spawn_failures_as_failed_attempts():
    from repro.core.report import render_campaign
    from repro.exec.runner import CampaignResult

    campaign = CampaignResult(
        jobs=[_job(0, "a@cxl", status="ok"),
              _job(1, "b@cxl", failure="spawn_failed")],
        results=[None, None],
        spawn_failures=2,
    )
    text = render_campaign(campaign)
    assert "pool: 2 worker spawn failure(s)" in text
    assert "in-process" not in text  # nothing fell back to running inline
    assert text.count("spawn_failed") == 2  # the job row and the pool line


def test_render_session_states_exact_fidelity():
    from repro.core.profiler import ProfileResult
    from repro.core.report import render_session

    text = render_session(ProfileResult(total_cycles=1000.0))
    assert text.splitlines()[1] == "fidelity: exact"


def test_render_session_states_adaptive_warps_aborts_and_skipped_epochs():
    from repro.core.profiler import ProfileResult
    from repro.core.report import render_session
    from repro.sim.warp import WarpEvent, WarpReport

    warp = WarpReport(events=[
        WarpEvent(epoch=4, t_start=20_000.0, t_end=60_000.0,
                  epochs_skipped=8.0, ops_skipped=900, verified=True),
        WarpEvent(epoch=14, t_start=70_000.0, t_end=80_000.0,
                  epochs_skipped=2.0, ops_skipped=200, verified=False),
    ])
    text = render_session(ProfileResult(total_cycles=90_000.0, warp=warp))
    assert text.splitlines()[1] == (
        "fidelity: adaptive, 2 warp(s), 1 aborted, 10.0 epochs"
        " (50000 cycles) skipped"
    )
