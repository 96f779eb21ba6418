"""PathFinder: the paper's primary contribution.

Snapshot-based, path-driven profiling of CXL.mem built from four
techniques (section 4): PFBuilder constructs the per-snapshot path map,
PFEstimator back-propagates CXL-induced stall cycles from the DIMM to the
core, PFAnalyzer estimates per-component queue lengths via Little's law
and flags the culprit path, and PFMaterializer synthesises behaviour
across snapshots through a time-series database.
"""

from .analyzer import (
    ANALYZER_COMPONENTS,
    AnalyzerReport,
    FabricDiagnosis,
    FabricPortEstimate,
    PFAnalyzer,
    QueueEstimate,
)
from .builder import CORE_COMPONENTS, FAMILIES, PFBuilder, PathMap, UNCORE_COMPONENTS
from .estimator import COMPONENTS as STALL_COMPONENTS
from .diff import MetricDelta, SessionDiff, compare_sessions, render_diff
from .estimator import PFEstimator, StallBreakdown
from .materializer import LocalityReport, PFMaterializer
from .mflow import MFlow, MFlowRegistry
from .persistence import (
    config_from_document,
    config_to_document,
    load_session,
    save_session,
    spec_from_document,
    spec_to_document,
)
from .profiler import EpochResult, PathFinder, ProfileResult
from .report import (
    render_epoch,
    render_fabric,
    render_path_map,
    render_queues,
    render_session,
    render_stall_breakdown,
    render_trace,
)
from .snapshot import Snapshot, SnapshotTaker
from .spec import AppSpec, ProfileSpec, ProfilingMode, TraceSpec

__all__ = [
    "ANALYZER_COMPONENTS",
    "AnalyzerReport",
    "AppSpec",
    "CORE_COMPONENTS",
    "EpochResult",
    "FAMILIES",
    "FabricDiagnosis",
    "FabricPortEstimate",
    "LocalityReport",
    "MFlow",
    "MetricDelta",
    "MFlowRegistry",
    "PFAnalyzer",
    "PFBuilder",
    "PFEstimator",
    "PFMaterializer",
    "PathFinder",
    "PathMap",
    "ProfileResult",
    "ProfileSpec",
    "ProfilingMode",
    "QueueEstimate",
    "STALL_COMPONENTS",
    "SessionDiff",
    "TraceSpec",
    "render_trace",
    "Snapshot",
    "SnapshotTaker",
    "StallBreakdown",
    "compare_sessions",
    "config_from_document",
    "config_to_document",
    "load_session",
    "spec_from_document",
    "spec_to_document",
    "render_diff",
    "save_session",
    "UNCORE_COMPONENTS",
    "render_epoch",
    "render_fabric",
    "render_path_map",
    "render_queues",
    "render_session",
    "render_stall_breakdown",
]
