"""PFMaterializer: cross-snapshot synthesis (section 4.6).

Every snapshot of a finished session is compacted into hierarchical
records - edges, vertices, mFlows and paths - and inserted into the
time-series database.  Workflows then run Flux-like query pipelines to
surface consistent execution characteristics: data locality phases
(window clustering), predictability (Holt-Winters), trends/anomalies
(TSA decomposition) and cross-application interference (Pearson
correlation of aligned series).  :func:`path_rows` builds the path
records; a live run folds the same rows into rolling state instead
(``repro.live``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..obs import persist_trace
from ..pmu.views import CorePMUView, CXLDeviceView, M2PCIeView, cxl_node_ids
from ..tsdb import (
    TimeSeriesDB,
    Window,
    cluster_windows,
    decompose,
    detect_period,
    holt_winters,
    pearsonr,
)
from .builder import FAMILIES, PathMap
from .snapshot import Snapshot

if TYPE_CHECKING:
    from .profiler import ProfileResult

PATH_SET = "path_set"
VERTEX_SET = "vertex_set"
EDGE_SET = "edge_set"
FLOW_SET = "mflow_set"


@dataclass
class LocalityReport:
    """Output of the LLC temporal-locality workflow (section 4.6's example)."""

    pid: int
    component: str
    hits_series: List[float]
    windows: List[Window]
    forecast: List[float]
    trend: List[float]
    anomalies: List[int]
    period: Optional[int]

    @property
    def stable_phase_length(self) -> int:
        if not self.windows:
            return 0
        return max(w.length for w in self.windows)

    @property
    def predictable(self) -> bool:
        """Forecast error within 25% of the series scale -> predictable."""
        if not self.forecast or len(self.hits_series) < 4:
            return False
        scale = max(abs(v) for v in self.hits_series) or 1.0
        actual = self.hits_series[-1]
        return abs(self.forecast[0] - actual) <= 0.25 * scale


#: A record's tags and numeric fields, as ``TimeSeriesDB.insert`` takes them.
Row = Tuple[Dict[str, str], Dict[str, float]]


def _core_pids(snapshot: Snapshot) -> Dict[int, int]:
    """The pid of each core's (last) flow in the snapshot."""
    return {flow.core_id: flow.pid for flow in snapshot.flows}


def path_rows(snapshot: Snapshot, path_map: PathMap) -> List[Row]:
    """One :data:`PATH_SET` row per core, request family and destination
    (LLC, CXL, DRAM): the destination's ``hits`` and the family's
    ``core_hits``.  A core with no flow has pid -1."""
    pids = _core_pids(snapshot)
    rows: List[Row] = []
    for core_id, families in path_map.per_core.items():
        pid = str(pids.get(core_id, -1))
        view = CorePMUView(snapshot.delta, core_id)
        for family in FAMILIES:
            components = families.get(family, {})
            core_hits = sum(v or 0.0 for v in components.values())
            for dst, scenario in (
                ("LLC", "l3_hit"),
                ("CXL", "cxl_dram"),
                ("DRAM", "local_dram"),
            ):
                hits = (
                    view.ocr(family, scenario)
                    if family != "HWPF"
                    else view.ocr("HWPF", scenario)
                    + view.ocr("HWPF_L1", scenario)
                    + view.ocr("HWPF_RFO", scenario)
                )
                rows.append((
                    {"pid": pid, "core": str(core_id), "path": family,
                     "dst": dst},
                    {"hits": hits, "core_hits": core_hits},
                ))
    return rows


class PFMaterializer:
    """Snapshot digests in, time-series insights out."""

    def __init__(self) -> None:
        self.db = TimeSeriesDB()
        self._ingested = 0

    @classmethod
    def from_result(cls, result: "ProfileResult") -> "PFMaterializer":
        """Materialize a finished session: every epoch's snapshot and path
        map (an aggregated session's one cumulative epoch), plus its
        trace's records when it was traced.

        A session document carries all of these, so a cached, pooled or
        served result materializes the same as an in-process one.
        """
        materializer = cls()
        for epoch in result.session_epochs():
            materializer.ingest(epoch.snapshot, epoch.path_map)
        if result.trace is not None:
            persist_trace(materializer.db, result.trace,
                          timestamp=result.total_cycles)
        return materializer

    # -- ingestion ------------------------------------------------------

    def ingest(self, snapshot: Snapshot, path_map: PathMap) -> None:
        """Compact one snapshot into path/vertex/edge/flow records."""
        t = snapshot.t_end
        insert = self.db.insert
        for tags, fields in path_rows(snapshot, path_map):
            insert(PATH_SET, t, tags=tags, fields=fields)
        pids = _core_pids(snapshot)
        for core_id in path_map.per_core:
            view = CorePMUView(snapshot.delta, core_id)
            insert(
                VERTEX_SET,
                t,
                tags={"component": "core", "core": str(core_id),
                      "pid": str(pids.get(core_id, -1))},
                fields={
                    "l1_hits": view.l1_hits,
                    "l1_misses": view.l1_misses,
                    "l2_stall": view.l2_stall_cycles,
                    "l1_stall": view.l1_stall_cycles,
                    "llc_stall": view.l3_stall_cycles,
                    "ops": view.ops_completed,
                    "demand_read_latency": view.avg_demand_read_latency,
                },
            )
        for node in cxl_node_ids(snapshot.delta):
            m2p = M2PCIeView(snapshot.delta, node)
            device = CXLDeviceView(snapshot.delta, node)
            duration = max(snapshot.duration, 1.0)
            insert(
                EDGE_SET,
                t,
                tags={"edge": f"flexbus{node}"},
                fields={
                    "loads": m2p.data_responses,
                    "stores": m2p.write_acks,
                    "queue_occupancy": m2p.ingress_occupancy / duration,
                    "device_queue": device.mc_occupancy / duration,
                },
            )
        for flow in snapshot.flows:
            insert(
                FLOW_SET,
                t,
                tags={
                    "pid": str(flow.pid),
                    "core": str(flow.core_id),
                    "node": str(flow.node_id),
                    "kind": flow.node_kind,
                    "flow": str(flow.flow_id),
                },
                fields={"alive": 1.0},
            )
        self._ingested += 1

    @property
    def snapshots_ingested(self) -> int:
        return self._ingested

    # -- workflows -----------------------------------------------------------

    def locality(
        self,
        pid: int,
        component: str = "LLC",
        path: str = "DRd",
        window_tolerance: float = 0.2,
    ) -> LocalityReport:
        """Section 4.6's worked example: LLC temporal locality of one app.

        1. scope the query to the app's paths whose destination is ``component``;
        2. pull the hit series and overall stats;
        3. cluster snapshots into stable windows;
        4. run TSA + Holt-Winters for trend/seasonality/predictability;
        5. leave cross-app correlation to :meth:`correlate`.
        """
        query = self.db.from_(PATH_SET).where(
            pid=str(pid), path=path, dst=component
        )
        series = query.values("hits")
        if not series:
            raise ValueError(
                f"no snapshots for pid={pid} path={path} dst={component}"
            )
        windows = cluster_windows(series, tolerance=window_tolerance)
        period = detect_period(series)
        decomposition = decompose(series, period=period)
        forecast = (
            holt_winters(series, horizon=1, season_length=period)
            if len(series) >= 2
            else list(series)
        )
        return LocalityReport(
            pid=pid,
            component=component,
            hits_series=series,
            windows=windows,
            forecast=forecast,
            trend=decomposition.trend,
            anomalies=decomposition.anomalies(),
            period=period,
        )

    def correlate(
        self, pid_a: int, pid_b: int, field: str = "hits",
        path: str = "DRd", dst: str = "LLC",
    ) -> float:
        """Pearson correlation between two apps' aligned snapshot series."""
        qa = self.db.from_(PATH_SET).where(pid=str(pid_a), path=path, dst=dst)
        qb = self.db.from_(PATH_SET).where(pid=str(pid_b), path=path, dst=dst)
        return qa.pearsonr_with(qb, field)

    def bandwidth_correlation(self, flows: Sequence[Tuple[int, int]]) -> float:
        """Case 5 (Figure 11-b): correlation between per-flow CXL request
        frequency and application-level throughput across flows.

        ``flows`` is a list of (pid, core) pairs sharing the CXL link.
        """
        freqs: List[float] = []
        throughputs: List[float] = []
        for pid, core in flows:
            requests = self.db.from_(PATH_SET).where(
                pid=str(pid), core=str(core), dst="CXL"
            )
            ops = self.db.from_(VERTEX_SET).where(
                component="core", core=str(core)
            )
            if requests.empty or ops.empty:
                continue
            freqs.append(requests.sum("hits"))
            throughputs.append(ops.sum("ops"))
        if len(freqs) < 2:
            raise ValueError("need at least two flows to correlate")
        return pearsonr(freqs, throughputs)

    def locality_shift(
        self, pid: int, boundary: float, path: str = "DRd", dst: str = "LLC"
    ) -> Tuple[float, float]:
        """Mean hits before/after a disturbance at time ``boundary``
        (Case 6: how launching a neighbour changes an app's locality)."""
        query = self.db.from_(PATH_SET).where(pid=str(pid), path=path, dst=dst)
        before = query.range(stop=boundary)
        after = query.range(start=boundary)
        if before.empty or after.empty:
            raise ValueError("boundary leaves an empty side")
        return before.mean("hits"), after.mean("hits")

    def flexbus_utilization_series(self, node: int = 0) -> List[float]:
        return self.db.from_(EDGE_SET).where(edge=f"flexbus{node}").values(
            "queue_occupancy"
        )

    # -- extension workflows (section 4.6's closing list) ---------------------

    def compute_bursts(self, core_id: int, z_threshold: float = 2.0) -> List[int]:
        """Computing-burst detection: epochs where a core's completed-op
        rate is a residual outlier of its own series."""
        series = self.db.from_(VERTEX_SET).where(
            component="core", core=str(core_id)
        ).values("ops")
        if len(series) < 4:
            return []
        decomposition = decompose(series)
        return decomposition.anomalies(z_threshold=z_threshold)

    def orthogonality(self, core_a: int, core_b: int) -> float:
        """Execution orthogonality between two co-located cores.

        Pearson correlation of their per-epoch op-completion series:
        ~0 means the tenants progress independently; strongly negative
        means they contend (one's burst is the other's stall); positive
        means they breathe together (shared phase behaviour).
        """
        qa = self.db.from_(VERTEX_SET).where(component="core", core=str(core_a))
        qb = self.db.from_(VERTEX_SET).where(component="core", core=str(core_b))
        return qa.pearsonr_with(qb, "ops")

    def spatial_locality(self, pid: int, path: str = "DRd") -> float:
        """Spatial-locality proxy: the fraction of the app's beyond-L2
        traffic absorbed by nearer tiers (LLC vs memory), averaged over
        snapshots.  Dense, spatially-local apps keep this high; scattered
        access patterns push it toward zero."""
        llc = self.db.from_(PATH_SET).where(
            pid=str(pid), path=path, dst="LLC"
        ).values("hits")
        dram = self.db.from_(PATH_SET).where(
            pid=str(pid), path=path, dst="DRAM"
        ).values("hits")
        cxl = self.db.from_(PATH_SET).where(
            pid=str(pid), path=path, dst="CXL"
        ).values("hits")
        if not llc:
            raise ValueError(f"no snapshots for pid={pid}")
        ratios = []
        for i in range(len(llc)):
            near = llc[i]
            far = (dram[i] if i < len(dram) else 0.0) + (
                cxl[i] if i < len(cxl) else 0.0
            )
            total = near + far
            if total > 0:
                ratios.append(near / total)
        return sum(ratios) / len(ratios) if ratios else 0.0
