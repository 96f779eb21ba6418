"""Session persistence: export/import profiling digests as JSON.

The paper layers a time-series database over the profiler so sessions can
be analysed offline and across runs.  This module provides the file
format: a compact JSON digest of a :class:`ProfileResult` - per-epoch
counter deltas (sparse), flow metadata and session parameters - plus a
loader that reconstitutes snapshots so every technique (PFBuilder,
PFEstimator, PFAnalyzer, PFMaterializer) can re-run on saved data.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .mflow import MFlow
from .profiler import ProfileResult
from .snapshot import Snapshot
from .spec import AppSpec, ProfileSpec, ProfilingMode, ReportSpec, TraceSpec

FORMAT_VERSION = 1

#: Version of the declarative ProfileSpec / MachineConfig wire format
#: (what ``repro.serve`` accepts over HTTP).
SPEC_FORMAT_VERSION = 1


def _flow_to_dict(flow: MFlow) -> Dict:
    return {
        "flow_id": flow.flow_id,
        "pid": flow.pid,
        "core_id": flow.core_id,
        "node_id": flow.node_id,
        "node_kind": flow.node_kind,
        "app_name": flow.app_name,
        "created_at": flow.created_at,
        "ended_at": flow.ended_at,
        "snapshot_ids": list(flow.snapshot_ids),
    }


def _flow_from_dict(data: Dict) -> MFlow:
    flow = MFlow(
        pid=data["pid"],
        core_id=data["core_id"],
        node_id=data["node_id"],
        node_kind=data["node_kind"],
        app_name=data.get("app_name", ""),
        created_at=data.get("created_at", 0.0),
    )
    flow.flow_id = data["flow_id"]
    flow.ended_at = data.get("ended_at")
    flow.snapshot_ids = list(data.get("snapshot_ids", []))
    return flow


def result_to_document(result: ProfileResult) -> Dict:
    """Digest a :class:`ProfileResult` into a JSON-able document.

    Aggregated-mode sessions keep no epoch list but do carry a final
    cumulative epoch; it is stored with ``aggregated_only`` set so
    :func:`result_from_document` can round-trip either mode.
    """
    epoch_results = list(result.epochs)
    aggregated_only = False
    if not epoch_results and result.final is not None:
        epoch_results = [result.final]
        aggregated_only = True
    flows_by_id = {}
    epochs = []
    for epoch in epoch_results:
        snapshot = epoch.snapshot
        delta = [
            [scope, event, value]
            for (scope, event), value in snapshot.delta.items()
            if value
        ]
        entry = {
            "epoch": epoch.epoch,
            "snapshot_id": snapshot.snapshot_id,
            "t_start": snapshot.t_start,
            "t_end": snapshot.t_end,
            "flow_ids": [f.flow_id for f in snapshot.flows],
            "delta": delta,
        }
        if snapshot.warped:
            # Only present when true: exact sessions round-trip
            # byte-identically to the pre-warp format.
            entry["warped"] = True
        epochs.append(entry)
        for flow in snapshot.flows:
            flows_by_id[flow.flow_id] = flow
    for flow in result.flows:
        flows_by_id[flow.flow_id] = flow
    document = {
        "format_version": FORMAT_VERSION,
        "aggregated_only": aggregated_only,
        "total_cycles": result.total_cycles,
        "flows": [_flow_to_dict(f) for f in flows_by_id.values()],
        "epochs": epochs,
    }
    if result.trace is not None:
        document["trace"] = result.trace.to_dict()
    if result.warp is not None:
        document["warp"] = result.warp.to_dict()
    return document


def save_session(result: ProfileResult, path: Union[str, Path]) -> None:
    """Write a profiling session digest to ``path`` (JSON)."""
    Path(path).write_text(json.dumps(result_to_document(result)))


def session_from_document(document: Dict) -> "LoadedSession":
    """Reconstitute a digest document into analysis-ready snapshots."""
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported session format version: {version}")
    flows = {
        data["flow_id"]: _flow_from_dict(data)
        for data in document.get("flows", [])
    }
    snapshots: List[Snapshot] = []
    for epoch in document["epochs"]:
        delta = {
            (scope, event): value for scope, event, value in epoch["delta"]
        }
        snapshot = Snapshot(
            t_start=epoch["t_start"],
            t_end=epoch["t_end"],
            delta=delta,
            flows=[flows[fid] for fid in epoch["flow_ids"] if fid in flows],
            warped=bool(epoch.get("warped", False)),
        )
        snapshot.snapshot_id = epoch["snapshot_id"]
        snapshots.append(snapshot)
    return LoadedSession(
        snapshots=snapshots,
        flows=list(flows.values()),
        total_cycles=document.get("total_cycles", 0.0),
    )


def load_session(path: Union[str, Path]) -> "LoadedSession":
    """Read a digest back; snapshots are fully reusable by the analyses."""
    return session_from_document(json.loads(Path(path).read_text()))


def result_from_document(document: Dict) -> ProfileResult:
    """Rebuild a full :class:`ProfileResult` from a digest document.

    Counter deltas, flows and total cycles are exactly the stored values;
    the derived per-epoch analyses (path map, stall breakdown, queue
    report) are recomputed by re-running the techniques on the stored
    snapshots.  A campaign run (``api.run`` without a machine,
    ``run_many``) returns its fresh result through this function too, so
    its cache hits are indistinguishable from fresh runs.  An in-process
    result (``api.run(machine=...)``, live runs, ``pathfinder run``) is
    not: the document drops zero-valued counter deltas, so the rebuilt
    analyses lose zero-valued rows - the ``cxl_traffic`` row of a
    local-bound session, and idle switch ports such as a pooled fabric's
    ``host1``.
    """
    from .analyzer import PFAnalyzer
    from .builder import PFBuilder
    from .estimator import PFEstimator
    from .profiler import EpochResult

    session = session_from_document(document)
    builder, estimator, analyzer = PFBuilder(), PFEstimator(), PFAnalyzer()
    epoch_numbers = [e.get("epoch", i + 1)
                     for i, e in enumerate(document["epochs"])]
    epochs = []
    for number, snapshot in zip(epoch_numbers, session.snapshots):
        epochs.append(
            EpochResult(
                epoch=number,
                snapshot=snapshot,
                path_map=builder.build(snapshot),
                stalls=estimator.breakdown(snapshot),
                queues=analyzer.analyze(snapshot),
            )
        )
    result = ProfileResult(
        epochs=[] if document.get("aggregated_only") else epochs,
        final=epochs[-1] if epochs else None,
        flows=session.flows,
        total_cycles=session.total_cycles,
    )
    if document.get("trace") is not None:
        from ..obs import TraceReport

        result.trace = TraceReport.from_dict(document["trace"])
    if document.get("warp") is not None:
        from ..sim.warp import WarpReport

        result.warp = WarpReport.from_dict(document["warp"])
    return result


# -- declarative specs (the repro.serve wire format) ------------------------


def spec_to_document(spec: ProfileSpec) -> Dict:
    """Digest a :class:`ProfileSpec` into a JSON-able document.

    The inverse of :func:`spec_from_document`; workloads are captured
    declaratively via :mod:`repro.workloads.serde`, so the round trip
    preserves the content-addressed job key (only per-process identity -
    pids, page bases, RNG state - differs).
    """
    from ..workloads.serde import workload_to_document

    return {
        "spec_format": SPEC_FORMAT_VERSION,
        "apps": [
            {
                "workload": workload_to_document(app.workload),
                "core": app.core,
                "membind": app.membind,
                "interleave": list(app.interleave) if app.interleave else None,
                "preinstalled": (
                    list(app.preinstalled)
                    if app.preinstalled is not None else None
                ),
                "start_at": app.start_at,
            }
            for app in spec.apps
        ],
        "epoch_cycles": spec.epoch_cycles,
        "mode": spec.mode.value,
        "max_epochs": spec.max_epochs,
        "report": dataclasses.asdict(spec.report),
        "trace": dataclasses.asdict(spec.trace) if spec.trace else None,
    }


def spec_from_document(document: Dict) -> ProfileSpec:
    """Rebuild a :class:`ProfileSpec` from its declarative document."""
    from ..workloads.serde import workload_from_document

    version = document.get("spec_format", SPEC_FORMAT_VERSION)
    if version != SPEC_FORMAT_VERSION:
        raise ValueError(f"unsupported spec format version: {version}")
    apps = []
    for app in document["apps"]:
        interleave = app.get("interleave")
        preinstalled = app.get("preinstalled")
        apps.append(
            AppSpec(
                workload=workload_from_document(app["workload"]),
                core=int(app["core"]),
                membind=app.get("membind"),
                interleave=tuple(interleave) if interleave else None,
                preinstalled=(
                    list(preinstalled) if preinstalled is not None else None
                ),
                start_at=float(app.get("start_at", 0.0)),
            )
        )
    report = document.get("report")
    trace = document.get("trace")
    return ProfileSpec(
        apps=apps,
        epoch_cycles=float(document.get("epoch_cycles", 50_000.0)),
        mode=ProfilingMode(document.get("mode", "continuous")),
        max_epochs=int(document.get("max_epochs", 10_000)),
        report=ReportSpec(**report) if report else ReportSpec(),
        trace=TraceSpec(**trace) if trace else None,
    )


def config_to_document(config) -> Dict:
    """JSON-able form of a :class:`~repro.sim.topology.MachineConfig`."""
    return dataclasses.asdict(config)


def config_from_document(document: Optional[Dict]):
    """Rebuild a MachineConfig; ``None`` passes through (server default)."""
    from ..sim.dram import DRAMTiming
    from ..sim.topology import MachineConfig

    if document is None:
        return None
    fields = {f.name for f in dataclasses.fields(MachineConfig)}
    unknown = set(document) - fields
    if unknown:
        raise ValueError(
            f"unknown machine config fields: {sorted(unknown)}"
        )
    data = dict(document)
    for timing in ("local_dram", "cxl_dram"):
        if isinstance(data.get(timing), dict):
            data[timing] = DRAMTiming(**data[timing])
    if isinstance(data.get("fabric"), dict):
        from ..sim.fabric import FabricSpec

        data["fabric"] = FabricSpec.from_document(data["fabric"])
    return MachineConfig(**data)


class LoadedSession:
    """A reconstituted session: snapshots + flows, analysis-ready."""

    def __init__(
        self, snapshots: List[Snapshot], flows: List[MFlow], total_cycles: float
    ) -> None:
        self.snapshots = snapshots
        self.flows = flows
        self.total_cycles = total_cycles

    def reanalyze(self):
        """Re-run the four techniques offline; returns EpochResult-like
        tuples of (snapshot, path_map, stalls, queues)."""
        from .analyzer import PFAnalyzer
        from .builder import PFBuilder
        from .estimator import PFEstimator

        builder, estimator, analyzer = PFBuilder(), PFEstimator(), PFAnalyzer()
        out = []
        for snapshot in self.snapshots:
            out.append(
                (
                    snapshot,
                    builder.build(snapshot),
                    estimator.breakdown(snapshot),
                    analyzer.analyze(snapshot),
                )
            )
        return out
