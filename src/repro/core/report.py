"""Human-readable report rendering for profiling sessions."""

from __future__ import annotations

from typing import Optional

from .builder import FAMILIES, PathMap
from .estimator import COMPONENTS as STALL_COMPONENTS
from .estimator import StallBreakdown
from .analyzer import AnalyzerReport
from .profiler import EpochResult, ProfileResult


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "      -"
    if value >= 1e6:
        return f"{value:7.1e}"
    return f"{value:7.0f}"


def render_path_map(path_map: PathMap, core_id: int) -> str:
    """Table 7-style rendering: component rows x path-family columns."""
    lines = [
        f"Path map (snapshot {path_map.snapshot_id}, core {core_id})",
        "component    " + "".join(f"{f:>9}" for f in FAMILIES),
    ]
    for component, row in path_map.rows(core_id):
        lines.append(
            f"{component:<13}"
            + "".join(f"{_fmt(row[f]):>9}" for f in FAMILIES)
        )
    hot_core = path_map.hot_path_core(core_id)
    hot_uncore = path_map.hot_path_uncore()
    lines.append(f"hot path: core={hot_core} uncore={hot_uncore}")
    share = path_map.family_share_at_cxl()
    lines.append(
        "CXL share: "
        + " ".join(f"{f}={share[f]*100:.1f}%" for f in FAMILIES)
    )
    return "\n".join(lines)


def render_stall_breakdown(stalls: StallBreakdown) -> str:
    """Figure 6-style rendering: per-path stall shares across components."""
    lines = [f"CXL-induced stall breakdown (snapshot {stalls.snapshot_id})"]
    header = "path   " + "".join(f"{c:>12}" for c in STALL_COMPONENTS)
    lines.append(header)
    for family in FAMILIES:
        shares = stalls.shares(family)
        lines.append(
            f"{family:<7}"
            + "".join(f"{shares[c]*100:11.1f}%" for c in STALL_COMPONENTS)
        )
    return "\n".join(lines)


def render_queues(report: AnalyzerReport, top_n: int = 5) -> str:
    lines = [f"Queue analysis (snapshot {report.snapshot_id})"]
    ranked = sorted(
        report.estimates, key=lambda e: e.queue_length, reverse=True
    )[:top_n]
    for est in ranked:
        core = "all" if est.core_id < 0 else str(est.core_id)
        lines.append(
            f"  {est.path:>5} @ {est.component:<10} core={core:<4}"
            f" L={est.queue_length:8.3f}  lambda={est.arrival_rate:.4f}"
            f"  W={est.delay:8.1f}"
        )
    culprit = report.culprit()
    if culprit is not None:
        lines.append(
            f"culprit: {culprit.path} on {culprit.component}"
            f" (queue length {culprit.queue_length:.3f})"
        )
    return "\n".join(lines)


def render_fabric(report: AnalyzerReport, top_n: int = 5) -> str:
    """Switch-port occupancy table plus the fabric-vs-device verdict."""
    lines = [f"CXL fabric (snapshot {report.snapshot_id})"]
    if not report.fabric_ports:
        lines.append("  no switch ports observed (direct-attached CXL)")
        return "\n".join(lines)
    ranked = sorted(
        report.fabric_ports, key=lambda p: p.queue_length, reverse=True
    )[:top_n]
    lines.append(
        "  port                          L    fwd    retry       W"
    )
    for port in ranked:
        lines.append(
            f"  {port.name:<24}{port.queue_length:8.3f}"
            f" {port.forwarded:6.0f} {port.retries:8.0f}"
            f" {port.delay:7.1f}"
        )
    diagnosis = report.fabric_diagnosis()
    if diagnosis is not None:
        hot = diagnosis.congested_port
        lines.append(
            f"verdict: {diagnosis.verdict}"
            f" (fabric L={diagnosis.fabric_queue:.3f}"
            f" at {hot.name if hot else '-'},"
            f" device L={diagnosis.device_queue:.3f})"
        )
    return "\n".join(lines)


def render_epoch(result: EpochResult, core_id: int = 0) -> str:
    parts = [
        f"=== epoch {result.epoch} (t={result.snapshot.t_start:.0f}"
        f"..{result.snapshot.t_end:.0f}) ===",
        render_path_map(result.path_map, core_id),
        render_stall_breakdown(result.stalls),
        render_queues(result.queues),
    ]
    if result.queues.fabric_ports:
        parts.append(render_fabric(result.queues))
    return "\n".join(parts)


def render_campaign(campaign) -> str:
    """Per-job status table plus totals for a :class:`CampaignResult`.

    Degenerate campaigns get an honest summary instead of the usual
    table: an empty job list says so outright, and a campaign where
    every job failed renders a failure-only summary (tag, failure kind,
    first error line) so the table cannot read as a successful run.
    """
    if not campaign.jobs:
        return "campaign: no jobs to report"
    if not campaign.ok:
        lines = [f"campaign FAILED: 0/{len(campaign.jobs)} jobs succeeded"]
        for job in campaign.jobs:
            detail = job.failure or "unknown"
            if job.error:
                first_line = job.error.strip().splitlines()[-1]
                detail += f": {first_line}"
            lines.append(
                f"  {job.tag:<20} attempts={job.attempts}"
                f" wall={job.wall_time:.2f}s  {detail}"
            )
        lines.append(
            f"campaign: 0/{len(campaign.jobs)} ok,"
            f" {campaign.wall_time:.2f}s wall"
        )
        return "\n".join(lines)
    lines = [
        "tag                  status     attempts     wall      events"
        "      cycles  failure",
    ]
    for job in campaign.jobs:
        lines.append(
            f"{job.tag:<20} {job.status:<10} {job.attempts:>8}"
            f" {job.wall_time:7.2f}s {_fmt(job.events_executed):>9}"
            f" {_fmt(job.total_cycles):>11}"
            f"  {job.failure or '-'}"
        )
    summary = campaign.summary()
    lines.append(
        f"campaign: {summary['ok']}/{summary['jobs']} ok,"
        f" {summary['cache_hits']} cache hits"
        f" ({summary['hit_rate']*100:.0f}%),"
        f" {summary['workers']} workers,"
        f" {summary['wall_time']:.2f}s wall,"
        f" {summary['total_events']:.0f} events"
    )
    if summary.get("spawn_failures"):
        lines.append(
            f"pool: {summary['spawn_failures']} worker spawn failure(s); "
            "each failed its job's attempt as spawn_failed"
        )
    return "\n".join(lines)


def render_fleet(result) -> str:
    """A fleet campaign report: placement table on top of the job table.

    Wraps :func:`render_campaign` (a :class:`FleetResult` IS a
    campaign result) with the per-member placement, reroute count and
    cache-hit locality the fleet layer adds.
    """
    lines = [render_campaign(result)]
    by_member = result.by_member() if hasattr(result, "by_member") else {}
    if by_member:
        lines.append("member               jobs    ok  hits  failed")
        for member_id in sorted(by_member):
            row = by_member[member_id]
            lines.append(
                f"{member_id:<20} {row['jobs']:>4} {row['ok']:>5}"
                f" {row['cache_hits']:>5} {row['failed']:>7}"
            )
    members = len(getattr(result, "members", []) or [])
    lines.append(
        f"fleet: {members} members,"
        f" {getattr(result, 'rerouted_jobs', 0)} rerouted,"
        f" locality {getattr(result, 'locality', 0.0)*100:.0f}%"
    )
    return "\n".join(lines)


def render_trace(trace, top_queues: int = 6) -> str:
    """Per-stage latency table for a :class:`repro.obs.TraceReport`.

    Canonical Clos stages first (request-path order), then any recorded
    fine-grained queue stages, then the busiest queue-occupancy series.
    """
    from ..obs import CANONICAL_STAGES

    lines = [
        f"Flight recorder: 1-in-{trace.sample_every} sampling,"
        f" {trace.requests_traced}/{trace.requests_seen} requests traced,"
        f" {trace.duration:.0f} cycles",
        "stage            samples     mean      p50      p95      max"
        "   est. L",
    ]
    ordered = [s for s in CANONICAL_STAGES if s in trace.stage_histograms]
    ordered += sorted(
        s for s in trace.stage_histograms if s not in CANONICAL_STAGES
    )
    for stage in ordered:
        hist = trace.stage_histograms[stage]
        if not hist.count:
            continue
        lines.append(
            f"{stage:<16} {hist.count:7d} {hist.mean:8.1f}"
            f" {hist.percentile(50.0):8.1f} {hist.percentile(95.0):8.1f}"
            f" {hist.max:8.1f}"
            f" {trace.measured_queue_length(stage):8.3f}"
        )
    if trace.queue_occupancy:
        busiest = sorted(
            trace.queue_occupancy.items(),
            key=lambda kv: -max(v for _, v in kv[1]),
        )[:top_queues]
        lines.append("queue occupancy (mean depth, busiest epoch):")
        for name, series in busiest:
            peak = max(v for _, v in series)
            mean = sum(v for _, v in series) / len(series)
            lines.append(f"  {name:<24} mean={mean:7.3f}  peak={peak:7.3f}")
    return "\n".join(lines)


def _fidelity_line(result: ProfileResult) -> str:
    """One line: how much of the session was simulated event by event.

    ``exact`` unless the adaptive warp fired; then its fast-forwards,
    the ones aborted on divergence, and the epochs they skipped.
    """
    report = result.warp
    if report is None:
        return "fidelity: exact"
    return (
        f"fidelity: adaptive, {len(report.events)} warp(s),"
        f" {report.aborted} aborted, {report.epochs_skipped:.1f} epochs"
        f" ({report.cycles_skipped:.0f} cycles) skipped"
    )


def render_session(result: ProfileResult, core_id: int = 0) -> str:
    lines = [
        f"PathFinder session: {result.num_epochs} epochs,"
        f" {result.total_cycles:.0f} cycles, {len(result.flows)} mFlows",
        _fidelity_line(result),
    ]
    for flow in result.flows:
        lines.append(
            f"  mFlow {flow.flow_id}: pid={flow.pid} core={flow.core_id}"
            f" node={flow.node_id} ({flow.node_kind})"
            f" snapshots={len(flow.snapshot_ids)}"
        )
    if result.final is not None:
        lines.append(render_epoch(result.final, core_id))
    return "\n".join(lines)
