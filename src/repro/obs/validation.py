"""Ground-truth validation of PFAnalyzer against the flight recorder.

PFAnalyzer infers per-component queue lengths from aggregate PMU counters
via Little's law; the recorder measures the same quantity directly from
per-request timestamps.  This module lines the two up per component: the
measured queue length is ``(sampled arrivals x sample_every / duration) x
mean residency`` - Little's law again, but over ground-truth intervals -
and agreement on the top-1 component is the pass criterion (the check
hardware could not run, section 5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .recorder import TraceReport

#: Measured stages that share a name with a PFAnalyzer component.
#: L1D is invisible to the recorder (L1 hits never become MemRequests),
#: and the nested CXL_MC stage is informational only.  FlexBus+MC does
#: not measure like with like: the recorder's interval is the residency
#: of the whole CXL complex, unloaded link and media latency included
#: (646-665 cycles on the seed-7 CXL cells), while the analyzer takes W
#: from queue occupancy per served flit (2.5-21.7 cycles there), so its
#: verdict compares a residency with a wait.
COMPARABLE_STAGES = ("LFB", "L2", "LLC", "FlexBus+MC")


@dataclass
class StageComparison:
    component: str
    measured_mean_residency: float
    measured_queue_length: float
    estimated_queue_length: float

    @property
    def ratio(self) -> Optional[float]:
        if self.estimated_queue_length <= 0:
            return None
        return self.measured_queue_length / self.estimated_queue_length


@dataclass
class ValidationReport:
    """Measured-vs-estimated queue lengths plus top-1 agreement."""

    rows: List[StageComparison] = field(default_factory=list)
    measured_top: Optional[str] = None
    estimated_top: Optional[str] = None

    @property
    def agrees(self) -> bool:
        return (
            self.measured_top is not None
            and self.measured_top == self.estimated_top
        )

    def row(self, component: str) -> Optional[StageComparison]:
        for row in self.rows:
            if row.component == component:
                return row
        return None

    def render(self) -> str:
        lines = [
            "Ground-truth validation (measured vs Little's-law estimate)",
            "component     meas W     meas L      est L   meas/est",
        ]
        for row in self.rows:
            ratio = f"{row.ratio:10.2f}" if row.ratio is not None else f"{'-':>10}"
            lines.append(
                f"{row.component:<12}"
                f" {row.measured_mean_residency:8.1f}"
                f" {row.measured_queue_length:10.4f}"
                f" {row.estimated_queue_length:10.4f}"
                f" {ratio}"
            )
        lines.append(
            f"top-1: measured={self.measured_top or '-'}"
            f" estimated={self.estimated_top or '-'}"
            f" -> {'AGREE' if self.agrees else 'DISAGREE'}"
        )
        return "\n".join(lines)


def validate_against_analyzer(
    report: TraceReport, analyzer_reports: Iterable
) -> ValidationReport:
    """Compare a trace report against PFAnalyzer queue estimates.

    ``analyzer_reports`` is the per-epoch sequence of
    :class:`~repro.core.analyzer.AnalyzerReport` objects from the same
    run (duck-typed: anything with ``by_component()``); their
    per-component queue lengths are averaged across epochs to match the
    whole-session aggregation of the trace report.
    """
    totals: Dict[str, float] = {}
    epochs = 0
    for analyzer_report in analyzer_reports:
        epochs += 1
        for component, length in analyzer_report.by_component().items():
            totals[component] = totals.get(component, 0.0) + length
    estimated = {
        component: total / epochs for component, total in totals.items()
    } if epochs else {}

    residency = report.stage_mean_residency()
    out = ValidationReport()
    for component in COMPARABLE_STAGES:
        measured_l = report.measured_queue_length(component)
        estimated_l = estimated.get(component, 0.0)
        if measured_l == 0.0 and estimated_l == 0.0:
            continue
        out.rows.append(
            StageComparison(
                component=component,
                measured_mean_residency=residency.get(component, 0.0),
                measured_queue_length=measured_l,
                estimated_queue_length=estimated_l,
            )
        )
    if out.rows:
        out.measured_top = max(
            out.rows, key=lambda r: r.measured_queue_length
        ).component
        out.estimated_top = max(
            out.rows, key=lambda r: r.estimated_queue_length
        ).component
    return out
