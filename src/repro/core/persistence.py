"""Session persistence: export/import profiling digests as JSON.

The paper layers a time-series database over the profiler so sessions can
be analysed offline and across runs.  This module provides the file
format: a compact JSON digest of a :class:`ProfileResult` - per-epoch
counter deltas, flow metadata and session parameters - plus a loader
that rebuilds the very :class:`ProfileResult` the digest was written
from, re-running PFBuilder, PFEstimator and PFAnalyzer on each stored
snapshot.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Optional, Union

from .mflow import MFlow
from .profiler import ProfileResult, analyze_epoch
from .snapshot import Snapshot
from .spec import AppSpec, ProfileSpec, ProfilingMode, TraceSpec

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

    Each epoch stores its snapshot: the counter delta as
    ``[scope, event, value]`` rows (the delta is sparse already), its
    time span and the ids of its flows.  An aggregated-mode session
    keeps no epoch list; its ``final`` epoch covers the whole session
    and is stored alone with ``aggregated_only`` set, so
    :func:`result_from_document` can round-trip either mode.
    """
    aggregated_only = not result.epochs and result.final is not None
    epoch_results = [result.final] if aggregated_only else result.epochs
    flows_by_id = {flow.flow_id: flow for flow in result.flows}
    epochs = []
    for epoch in epoch_results:
        snapshot = epoch.snapshot
        entry = {
            "epoch": epoch.epoch,
            "snapshot_id": snapshot.snapshot_id,
            "t_start": snapshot.t_start,
            "t_end": snapshot.t_end,
            "flow_ids": [f.flow_id for f in snapshot.flows],
            "delta": [
                [scope, event, value]
                for (scope, event), value in snapshot.delta.items()
            ],
        }
        if snapshot.warped:
            # Only present when true: exact sessions round-trip
            # byte-identically to the pre-warp format.
            entry["warped"] = True
        epochs.append(entry)
        for flow in snapshot.flows:
            flows_by_id.setdefault(flow.flow_id, flow)
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


def load_session(path: Union[str, Path]) -> ProfileResult:
    """Read a digest written by :func:`save_session` back into a result."""
    return result_from_document(json.loads(Path(path).read_text()))


def result_from_document(document: Dict) -> ProfileResult:
    """Rebuild the :class:`ProfileResult` a digest document was made from.

    ``result_from_document(result_to_document(r)) == r`` for every
    session, in-process or not: the counter deltas, flows, trace and
    warp report are the stored values, and each epoch's path map, stall
    breakdown and queue report are recomputed from its snapshot by
    :func:`~repro.core.profiler.analyze_epoch`, as the profiler did.
    """
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported session format version: {version}")
    flows = {
        data["flow_id"]: _flow_from_dict(data)
        for data in document.get("flows", [])
    }
    epochs = []
    for i, entry in enumerate(document["epochs"]):
        snapshot = Snapshot(
            t_start=entry["t_start"],
            t_end=entry["t_end"],
            delta={
                (scope, event): value for scope, event, value in entry["delta"]
            },
            flows=[flows[fid] for fid in entry["flow_ids"] if fid in flows],
            snapshot_id=entry["snapshot_id"],
            warped=bool(entry.get("warped", False)),
        )
        epochs.append(analyze_epoch(entry.get("epoch", i + 1), snapshot))
    result = ProfileResult(
        epochs=[] if document.get("aggregated_only") else epochs,
        final=epochs[-1] if epochs else None,
        flows=list(flows.values()),
        total_cycles=document.get("total_cycles", 0.0),
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
    trace = document.get("trace")
    return ProfileSpec(
        apps=apps,
        epoch_cycles=float(document.get("epoch_cycles", 50_000.0)),
        mode=ProfilingMode(document.get("mode", "continuous")),
        max_epochs=int(document.get("max_epochs", 10_000)),
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
