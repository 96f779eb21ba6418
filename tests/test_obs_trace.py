"""Tests for the flight recorder, its exporters and the validation report.

The traced sessions here run the real simulator end-to-end (RandomAccess
on the CXL node) because the recorder's correctness claims - monotone hop
timestamps, Little's-law consistency, determinism under sampling - are
about the integration, not the data structures alone.
"""

import json
import math

import pytest

from repro.core import PathFinder, ProfileSpec, TraceSpec
from repro.core.report import render_trace
from repro.core.spec import AppSpec
from repro.obs import (
    CANONICAL_STAGES,
    FlightRecorder,
    LogHistogram,
    RequestTrace,
    TraceReport,
    export_chrome_trace,
    to_chrome_trace,
    validate_against_analyzer,
    validate_chrome_trace,
)
from repro.sim import Machine, spr_config
from repro.workloads import RandomAccess


def traced_run(sample_every=8, num_ops=2500, seed=11, cores=2):
    machine = Machine(spr_config(num_cores=cores))
    workload = RandomAccess(
        num_ops=num_ops, working_set_bytes=1 << 20, read_ratio=0.8, seed=seed
    )
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0,
                      membind=machine.cxl_node.node_id)],
        epoch_cycles=50_000.0,
        trace=TraceSpec(sample_every=sample_every),
    )
    result = PathFinder(machine, spec).run()
    return machine, result


@pytest.fixture(scope="module")
def traced():
    _machine, result = traced_run()
    return result


# -- LogHistogram -------------------------------------------------------------


def test_histogram_mean_is_exact():
    hist = LogHistogram()
    for v in (0.5, 3.0, 17.0, 900.0):
        hist.add(v)
    assert hist.count == 4
    assert hist.mean == pytest.approx((0.5 + 3.0 + 17.0 + 900.0) / 4)
    assert hist.min == 0.5
    assert hist.max == 900.0


def test_histogram_percentile_within_bucket_bounds():
    hist = LogHistogram()
    for v in range(1, 101):
        hist.add(float(v))
    p50 = hist.percentile(50.0)
    # Log2 buckets: the answer is approximate but must stay in range and
    # be ordered against p95.
    assert hist.min <= p50 <= hist.max
    assert p50 <= hist.percentile(95.0) <= hist.max


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        LogHistogram().add(-1.0)


def test_histogram_merge_and_roundtrip():
    a, b = LogHistogram(), LogHistogram()
    for v in (1.0, 2.0, 4.0):
        a.add(v)
    for v in (8.0, 16.0):
        b.add(v)
    a.merge(b)
    assert a.count == 5
    assert a.max == 16.0
    restored = LogHistogram.from_dict(a.to_dict())
    assert restored.count == a.count
    assert restored.mean == pytest.approx(a.mean)
    assert restored.buckets() == a.buckets()


# -- RequestTrace interval pairing -------------------------------------------


def _trace(events):
    from repro.obs import HopEvent

    trace = RequestTrace(local_id=0, req_id=1, core_id=0, path="DRd",
                         address=0x1000, issue_time=0.0)
    trace.events = [HopEvent(c, k, t) for c, k, t in events]
    return trace


def test_intervals_pair_enq_with_latest_deq():
    trace = _trace([
        ("L2", "enq", 10.0), ("L2", "deq", 25.0),
        ("LLC", "enq", 30.0), ("LLC", "deq", 95.0),
    ])
    intervals = trace.intervals()
    assert ("L2", 10.0, 25.0) in intervals
    assert ("LLC", 30.0, 95.0) in intervals


def test_nested_intervals_pair_innermost_first():
    trace = _trace([
        ("FlexBus+MC", "enq", 10.0),
        ("CXL_MC", "enq", 20.0), ("CXL_MC", "deq", 50.0),
        ("FlexBus+MC", "deq", 60.0),
    ])
    intervals = trace.intervals()
    assert ("CXL_MC", 20.0, 50.0) in intervals
    assert ("FlexBus+MC", 10.0, 60.0) in intervals


def test_unmatched_enq_is_dropped():
    trace = _trace([("LFB", "enq", 5.0)])
    assert trace.intervals() == []


# -- sampling and the recorder ------------------------------------------------


def test_sampling_rate_is_respected(traced):
    report = traced.trace
    assert report.sample_every == 8
    assert report.requests_seen > 0
    # 1-in-8 with a recorder-local counter: traced count is within one of
    # ceil(seen / 8).
    expected = math.ceil(report.requests_seen / 8)
    assert abs(report.requests_traced - expected) <= 1


def test_canonical_stages_have_samples(traced):
    report = traced.trace
    # A CXL-bound workload must exercise the load path end to end.
    for stage in ("LFB", "LLC", "FlexBus+MC", "CXL_MC"):
        assert stage in report.stage_histograms, stage
        assert report.stage_histograms[stage].count > 0, stage


def test_hop_timestamps_are_monotone_per_request(traced):
    report = traced.trace
    assert report.traces, "sampled traces should be retained"
    for trace in report.traces:
        times = [hop.t for hop in trace.events]
        assert times == sorted(times), f"req {trace.req_id} hops out of order"
        for stage, start, end in trace.intervals():
            assert end >= start >= 0.0


def test_measured_queue_length_matches_littles_law(traced):
    report = traced.trace
    hist = report.stage_histograms["LLC"]
    rate = hist.count * report.sample_every / report.duration
    assert report.measured_queue_length("LLC") == pytest.approx(
        rate * hist.mean
    )


def test_queue_occupancy_series_nonnegative(traced):
    report = traced.trace
    assert report.queue_occupancy
    assert "core0.lfb" in report.queue_occupancy
    for series in report.queue_occupancy.values():
        for t, mean in series:
            assert t > 0.0
            assert mean >= 0.0


def test_report_roundtrips_through_dict(traced):
    report = traced.trace
    restored = TraceReport.from_dict(report.to_dict())
    assert restored.requests_seen == report.requests_seen
    assert restored.requests_traced == report.requests_traced
    assert set(restored.stage_histograms) == set(report.stage_histograms)
    assert restored.stage_mean_residency() == pytest.approx(
        report.stage_mean_residency()
    )
    assert len(restored.traces) == len(report.traces)


def test_render_trace_has_stage_rows(traced):
    text = render_trace(traced.trace)
    assert "Flight recorder: 1-in-8 sampling" in text
    assert "LLC" in text
    assert "queue occupancy" in text


# -- determinism --------------------------------------------------------------


def test_trace_is_deterministic_across_runs():
    _m1, first = traced_run(seed=23, num_ops=1200)
    _m2, second = traced_run(seed=23, num_ops=1200)
    a, b = first.trace, second.trace
    assert a.requests_seen == b.requests_seen
    assert a.requests_traced == b.requests_traced
    assert set(a.stage_histograms) == set(b.stage_histograms)
    for stage, hist in a.stage_histograms.items():
        other = b.stage_histograms[stage]
        assert hist.count == other.count, stage
        assert hist.mean == pytest.approx(other.mean), stage
    # Per-request hop sequences must match too (local ids are
    # deterministic even though global req_ids are not).
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert ta.local_id == tb.local_id
        assert [(h.component, h.kind, h.t) for h in ta.events] == [
            (h.component, h.kind, h.t) for h in tb.events
        ]


def test_disabled_recorder_leaves_no_trace():
    machine = Machine(spr_config(num_cores=2))
    workload = RandomAccess(num_ops=600, working_set_bytes=1 << 18, seed=3)
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0,
                      membind=machine.cxl_node.node_id)],
        epoch_cycles=50_000.0,
    )
    result = PathFinder(machine, spec).run()
    assert result.trace is None
    assert machine.cores[0].recorder is None


# -- chrome trace export ------------------------------------------------------


def test_chrome_trace_schema_is_valid(traced, tmp_path):
    path = tmp_path / "trace.json"
    document = export_chrome_trace(traced.trace, path)
    validate_chrome_trace(document)
    on_disk = json.loads(path.read_text())
    assert on_disk["displayTimeUnit"] == "ms"
    assert len(on_disk["traceEvents"]) == len(document["traceEvents"])


def test_chrome_trace_events_reference_traced_requests(traced):
    document = to_chrome_trace(traced.trace)
    events = document["traceEvents"]
    x_events = [e for e in events if e["ph"] == "X"]
    assert x_events
    for event in x_events:
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert "process_name" in names


def test_validate_chrome_trace_rejects_bad_events():
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X",
                                                "ts": 0, "pid": 0, "tid": 0}]})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "Q", "name": "x",
                                                "ts": 0, "pid": 0, "tid": 0}]})


# -- ground-truth validation --------------------------------------------------


def test_validation_top1_agrees_on_cxl_contention():
    # Acceptance scenario: two cores hammering the CXL node with 1-in-64
    # sampling; the measured busiest component must match PFAnalyzer's.
    machine = Machine(spr_config(num_cores=2))
    node = machine.cxl_node.node_id
    apps = [
        AppSpec(
            workload=RandomAccess(num_ops=4000, working_set_bytes=1 << 20,
                                  read_ratio=0.9, seed=31 + i),
            core=i,
            membind=node,
        )
        for i in range(2)
    ]
    spec = ProfileSpec(apps=apps, epoch_cycles=50_000.0,
                       trace=TraceSpec(sample_every=64))
    result = PathFinder(machine, spec).run()
    reports = [e.queues for e in result.epochs] or [result.final.queues]
    validation = validate_against_analyzer(result.trace, reports)
    assert validation.rows
    assert validation.agrees, validation.render()


def test_validation_render_mentions_verdict(traced):
    validation = validate_against_analyzer(
        traced.trace, [e.queues for e in traced.epochs]
    )
    text = validation.render()
    assert "top-1:" in text
    assert ("AGREE" in text) or ("DISAGREE" in text)


# -- persistence and caching --------------------------------------------------


def test_trace_survives_document_roundtrip(traced):
    from repro.core.persistence import result_from_document, result_to_document

    document = result_to_document(traced)
    assert "trace" in document
    json.dumps(document)  # must be JSON-able
    restored = result_from_document(document)
    assert restored.trace is not None
    assert restored.trace.requests_traced == traced.trace.requests_traced


def test_trace_spec_changes_cache_key():
    from repro.exec.hashing import job_key

    machine_config = spr_config(num_cores=2)
    workload = RandomAccess(num_ops=500, working_set_bytes=1 << 18, seed=5)
    base = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=1)],
        epoch_cycles=50_000.0,
    )
    traced_spec = ProfileSpec(
        apps=base.apps, epoch_cycles=50_000.0, trace=TraceSpec(sample_every=64)
    )
    assert job_key(base, machine_config) != job_key(traced_spec, machine_config)


def test_trace_flows_through_api_cache(tmp_path):
    from repro import RunOptions, api

    workload = RandomAccess(num_ops=800, working_set_bytes=1 << 18, seed=9)
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=1)],
        epoch_cycles=50_000.0,
        trace=TraceSpec(sample_every=16),
    )
    first = api.run(spec, options=RunOptions(cache=str(tmp_path)))
    assert first.trace is not None
    second = api.run(spec, options=RunOptions(cache=str(tmp_path)))
    assert second.trace is not None
    assert second.trace.requests_traced == first.trace.requests_traced


def test_persist_trace_writes_tsdb_records():
    from repro.obs import persist_trace
    from repro.tsdb import TimeSeriesDB

    _machine, result = traced_run(num_ops=1000, seed=7)
    db = TimeSeriesDB()
    persist_trace(db, result.trace, timestamp=123.0)
    stage_rows = list(db.measurement("TRACE_STAGES"))
    assert stage_rows
    stages = {row.tag("stage") for row in stage_rows}
    assert "LLC" in stages
    for row in stage_rows:
        assert row.field("mean_residency") >= 0.0
    assert list(db.measurement("TRACE_QUEUES"))


def test_persist_trace_stores_queue_samples_time_major():
    from repro.obs import persist_trace
    from repro.tsdb import TimeSeriesDB

    report = TraceReport(
        sample_every=1,
        queue_occupancy={
            "RPQ": [[100.0, 1.0], [200.0, 2.0]],
            "IRQ": [[100.0, 3.0], [200.0, 4.0], [300.0, 5.0]],
        },
    )
    db = TimeSeriesDB()
    persist_trace(db, report)
    rows = [
        (row.timestamp, row.tag("queue"), row.field("mean_depth"))
        for row in db.measurement("TRACE_QUEUES")
    ]
    assert rows == [
        (100.0, "IRQ", 3.0), (100.0, "RPQ", 1.0),
        (200.0, "IRQ", 4.0), (200.0, "RPQ", 2.0),
        (300.0, "IRQ", 5.0),
    ]


def test_trace_spec_validates():
    with pytest.raises(ValueError):
        TraceSpec(sample_every=0)
    with pytest.raises(ValueError):
        TraceSpec(max_requests=-1)
