"""Session A/B comparison.

Case 7 evaluates an optimisation (TPP) by lining up two profiling
sessions - baseline vs treatment - and comparing hit locations, uncore
latencies and culprit queueing.  This module packages that workflow:
:func:`compare_sessions` takes two profiled results and produces a
structured :class:`SessionDiff` of the metrics the paper compares, plus a
textual renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pmu.views import CorePMUView, M2PCIeView, core_ids, cxl_node_ids
from .profiler import EpochResult, ProfileResult

_SERVE_TIERS = ("l3_hit", "snc_cache", "local_dram", "remote_dram", "cxl_dram")


@dataclass
class MetricDelta:
    """One compared metric: baseline, treatment, and the ratio."""

    name: str
    baseline: float
    treatment: float

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.treatment > 0 else 1.0
        return self.treatment / self.baseline

    @property
    def change_pct(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.treatment == 0 else float("inf")
        return (self.treatment - self.baseline) / self.baseline * 100.0


@dataclass
class SessionDiff:
    """Structured comparison of two profiling sessions."""

    runtime: MetricDelta
    serve_shift: Dict[str, Dict[str, MetricDelta]] = field(default_factory=dict)
    cxl_traffic: Optional[MetricDelta] = None
    stall_uncore_fraction: Optional[MetricDelta] = None
    culprit_queue: Optional[MetricDelta] = None

    def speedup(self) -> float:
        if self.runtime.treatment == 0:
            return float("inf")
        return self.runtime.baseline / self.runtime.treatment

    def metrics(self) -> List[MetricDelta]:
        out = [self.runtime]
        for family_metrics in self.serve_shift.values():
            out.extend(family_metrics.values())
        for metric in (self.cxl_traffic, self.stall_uncore_fraction,
                       self.culprit_queue):
            if metric is not None:
                out.append(metric)
        return out


def compare_sessions(
    baseline: ProfileResult,
    treatment: ProfileResult,
    families: Tuple[str, ...] = ("DRd", "RFO", "HWPF"),
) -> SessionDiff:
    """Line up two sessions of the same workload under different policies."""
    base_totals = baseline.counter_totals()
    treat_totals = treatment.counter_totals()
    diff = SessionDiff(
        runtime=MetricDelta(
            "runtime_cycles", baseline.total_cycles, treatment.total_cycles
        )
    )
    # Per-family serve-tier shifts (Figure 13-a's hit comparison).
    cores = sorted(set(core_ids(base_totals)) | set(core_ids(treat_totals)))
    for family in families:
        per_tier: Dict[str, MetricDelta] = {}
        for tier in _SERVE_TIERS:
            base_value = sum(
                CorePMUView(base_totals, c).ocr(family, tier) for c in cores
            )
            treat_value = sum(
                CorePMUView(treat_totals, c).ocr(family, tier) for c in cores
            )
            if base_value or treat_value:
                per_tier[tier] = MetricDelta(
                    f"{family}.{tier}", base_value, treat_value
                )
        if per_tier:
            diff.serve_shift[family] = per_tier
    # CXL DIMM traffic (M2PCIe ground truth).
    nodes = sorted(
        set(cxl_node_ids(base_totals)) | set(cxl_node_ids(treat_totals))
    )
    if nodes:
        base_traffic = sum(
            M2PCIeView(base_totals, n).data_responses
            + M2PCIeView(base_totals, n).write_acks
            for n in nodes
        )
        treat_traffic = sum(
            M2PCIeView(treat_totals, n).data_responses
            + M2PCIeView(treat_totals, n).write_acks
            for n in nodes
        )
        diff.cxl_traffic = MetricDelta(
            "cxl_dimm_traffic", base_traffic, treat_traffic
        )
    # Stall shape: the uncore fraction of attributed DRd stall.
    base_epochs = baseline.session_epochs()
    treat_epochs = treatment.session_epochs()
    if base_epochs and treat_epochs:
        diff.stall_uncore_fraction = MetricDelta(
            "drd_stall_uncore_fraction",
            _mean_uncore_fraction(base_epochs),
            _mean_uncore_fraction(treat_epochs),
        )
        diff.culprit_queue = MetricDelta(
            "late_culprit_queue",
            _late_culprit(base_epochs),
            _late_culprit(treat_epochs),
        )
    return diff


def _mean_uncore_fraction(epochs: List[EpochResult]) -> float:
    fractions = [
        e.stalls.uncore_fraction("DRd")
        for e in epochs
        if sum(e.stalls.aggregate("DRd").values()) > 0
    ]
    return sum(fractions) / len(fractions) if fractions else 0.0


def _late_culprit(epochs: List[EpochResult]) -> float:
    tail = epochs[-max(1, len(epochs) // 3):]
    queues = [
        e.queues.culprit().queue_length
        for e in tail
        if e.queues.culprit() is not None
    ]
    return sum(queues) / len(queues) if queues else 0.0


def render_diff(diff: SessionDiff) -> str:
    lines = [
        "Session comparison (baseline -> treatment)",
        f"  runtime : {diff.runtime.baseline:.0f} -> "
        f"{diff.runtime.treatment:.0f} cycles "
        f"({diff.speedup():.2f}x speedup)",
    ]
    for family, tiers in diff.serve_shift.items():
        for tier, metric in tiers.items():
            lines.append(
                f"  {family:<5} served by {tier:<12}: "
                f"{metric.baseline:9.0f} -> {metric.treatment:9.0f} "
                f"({metric.change_pct:+.1f}%)"
            )
    if diff.cxl_traffic is not None:
        lines.append(
            f"  CXL DIMM traffic : {diff.cxl_traffic.baseline:.0f} -> "
            f"{diff.cxl_traffic.treatment:.0f} "
            f"({diff.cxl_traffic.change_pct:+.1f}%)"
        )
    if diff.stall_uncore_fraction is not None:
        lines.append(
            f"  DRd stall uncore share : "
            f"{diff.stall_uncore_fraction.baseline*100:.1f}% -> "
            f"{diff.stall_uncore_fraction.treatment*100:.1f}%"
        )
    if diff.culprit_queue is not None:
        lines.append(
            f"  late culprit queue : {diff.culprit_queue.baseline:.2f} -> "
            f"{diff.culprit_queue.treatment:.2f}"
        )
    return "\n".join(lines)
