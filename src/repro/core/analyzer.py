"""PFAnalyzer: culprit-path detection at bottlenecked hardware (section 4.5).

Each vertex of the Clos graph is modelled as an FCFS queue.  The PMU gives
two things per component: hit/miss frequencies (arrival rates) and data
response times (delays), so Little's law ``L = lambda x W`` estimates the
average queue length a path sustains at each on-path component:

* L1D, L2:  ``L = lambda_hit x W_hit + lambda_miss x W_tag`` - a miss
  only occupies the level for the tag lookup before being forwarded.
* LLC:      ``L = lambda_hit x W_hit + lambda_miss x W_miss`` where
  ``W_miss`` is the observed TOR residency of missing requests (they park
  in the TOR until completion).
* LFB, DIMM: ``L = lambda_hit x W_hit`` - terminal stages that never
  forward (the memory holds the full data set).

Delays ``W`` are taken from the per-core load-latency samples as the
*increment* over the previous hop (the core-observed latency difference,
exactly the delay-variation attribution of the networking literature the
paper cites).  The (component, path) pair with the largest estimated queue
is the snapshot's culprit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pmu.views import CHAPMUView, CXLDeviceView, CorePMUView, M2PCIeView, core_ids, cxl_node_ids
from .snapshot import Snapshot

ANALYZER_COMPONENTS = ("L1D", "LFB", "L2", "LLC", "FlexBus+MC", "CXLFabric")
ANALYZED_PATHS = ("DRd", "RFO", "HWPF")

# A side must beat the other by this factor before the fabric diagnosis
# names it; anything closer is "balanced".
FABRIC_DIAGNOSIS_MARGIN = 1.2

# Fixed tag-lookup costs (cycles): hardware constants from capacity and
# associativity, as the paper assigns W_tag a constant value.
W_TAG_L1 = 4.0
W_TAG_L2 = 12.0


@dataclass(frozen=True)
class QueueEstimate:
    component: str
    path: str
    core_id: int
    queue_length: float
    arrival_rate: float
    delay: float


@dataclass(frozen=True)
class FabricPortEstimate:
    """Little's-law occupancy of one switch output port.

    ``queue_length`` is the time-average occupancy of the port's input
    queue over the snapshot; ``retries`` counts credit-throttled
    submissions (flits that found the queue full), the direct congestion
    signal."""

    switch: str
    port: str
    queue_length: float
    arrival_rate: float
    delay: float
    forwarded: float
    retries: float

    @property
    def name(self) -> str:
        return f"{self.switch}:{self.port}"


@dataclass(frozen=True)
class FabricDiagnosis:
    """Where do a switched machine's CXL stalls build up?

    ``verdict`` is ``"fabric-congested"`` (switch-port queues dominate),
    ``"device-bound"`` (device pack-buffer/MC queues dominate), or
    ``"balanced"`` when neither side beats the other by
    :data:`FABRIC_DIAGNOSIS_MARGIN`."""

    verdict: str
    congested_port: Optional[FabricPortEstimate]
    fabric_queue: float
    device_queue: float


@dataclass
class AnalyzerReport:
    """All per-(core, path, component) queue estimates of one snapshot."""

    snapshot_id: int
    estimates: List[QueueEstimate] = field(default_factory=list)
    fabric_ports: List[FabricPortEstimate] = field(default_factory=list)
    device_queue_length: float = 0.0

    def queue(self, component: str, path: str, core_id: Optional[int] = None) -> float:
        total = 0.0
        for est in self.estimates:
            if est.component == component and est.path == path:
                if core_id is None or est.core_id == core_id:
                    total += est.queue_length
        return total

    def culprit(self) -> Optional[QueueEstimate]:
        """ALG 1 line 19: the maximum-occupancy (component, path)."""
        if not self.estimates:
            return None
        return max(self.estimates, key=lambda e: e.queue_length)

    def culprit_for_core(self, core_id: int) -> Optional[QueueEstimate]:
        own = [e for e in self.estimates if e.core_id == core_id]
        if not own:
            return None
        return max(own, key=lambda e: e.queue_length)

    def by_component(self, path: Optional[str] = None) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for est in self.estimates:
            if path is not None and est.path != path:
                continue
            out[est.component] = out.get(est.component, 0.0) + est.queue_length
        return out

    def fabric_diagnosis(self) -> Optional[FabricDiagnosis]:
        """Attribute CXL stalls to fabric-port contention vs device-side
        queues.  ``None`` when the snapshot saw no switch ports at all."""
        if not self.fabric_ports:
            return None
        hot = max(self.fabric_ports, key=lambda p: p.queue_length)
        fabric_queue = hot.queue_length
        device_queue = self.device_queue_length
        if fabric_queue > FABRIC_DIAGNOSIS_MARGIN * device_queue:
            verdict = "fabric-congested"
        elif device_queue > FABRIC_DIAGNOSIS_MARGIN * fabric_queue:
            verdict = "device-bound"
        else:
            verdict = "balanced"
        return FabricDiagnosis(
            verdict=verdict,
            congested_port=hot,
            fabric_queue=fabric_queue,
            device_queue=device_queue,
        )


class PFAnalyzer:
    """Runs ALG 1 over one snapshot."""

    def __init__(self, socket: int = 0) -> None:
        self.socket = socket

    def analyze(self, snapshot: Snapshot) -> AnalyzerReport:
        delta = snapshot.delta
        clocks = max(snapshot.duration, 1.0)
        report = AnalyzerReport(snapshot_id=snapshot.snapshot_id)
        cha = CHAPMUView(delta, self.socket)
        for cid in core_ids(delta):
            view = CorePMUView(delta, cid)
            delays = self._hop_delays(view)
            for path in ANALYZED_PATHS:
                report.estimates.extend(
                    self._per_core_estimates(view, cha, path, clocks, delays)
                )
        report.estimates.extend(self._flexbus_estimates(snapshot, cha, clocks))
        report.fabric_ports = self._fabric_ports(delta, clocks)
        report.device_queue_length = self._device_queue(delta, clocks)
        report.estimates.extend(
            self._fabric_estimates(report.fabric_ports, cha, clocks)
        )
        return report

    # -- delays ------------------------------------------------------------

    def _hop_delays(self, view: CorePMUView) -> Dict[str, float]:
        """Per-hop service delay = latency increment over the previous hop."""
        l2_lat, _ = view.latency_sample("L2")
        llc_lat = self._mean(
            view.latency_sample("local_LLC"), view.latency_sample("snc_LLC")
        )
        mem_lat = self._mean(
            view.latency_sample("local_DRAM"),
            view.latency_sample("remote_DRAM"),
            view.latency_sample("CXL_DRAM"),
        )
        l1_hit = W_TAG_L1 + 1.0
        l2_hit = max(l2_lat - l1_hit, W_TAG_L2) if l2_lat else W_TAG_L2
        llc_hit = max(llc_lat - l2_lat, 1.0) if llc_lat else 1.0
        return {
            "L1D_hit": l1_hit,
            "L2_hit": l2_hit,
            "LLC_hit": llc_hit,
            "LLC_lat": llc_lat,
            "MEM": mem_lat,
        }

    @staticmethod
    def _mean(*samples: Tuple[float, float]) -> float:
        total = sum(mean * count for mean, count in samples)
        count = sum(count for _mean, count in samples)
        return total / count if count else 0.0

    # -- per-core components -------------------------------------------------

    def _per_core_estimates(
        self,
        view: CorePMUView,
        cha: CHAPMUView,
        path: str,
        clocks: float,
        delays: Dict[str, float],
    ) -> List[QueueEstimate]:
        cid = view.core_id
        out: List[QueueEstimate] = []

        def add(component: str, rate: float, delay: float) -> None:
            # A path with no arrivals (or no latency samples backing the
            # delay) contributes no queue: emit nothing rather than a
            # zero/NaN estimate that could tie-break into a culprit.
            if not (rate > 0.0) or not math.isfinite(rate):
                return
            if not math.isfinite(delay) or delay < 0.0:
                return
            out.append(
                QueueEstimate(
                    component=component,
                    path=path,
                    core_id=cid,
                    queue_length=rate * delay,
                    arrival_rate=rate,
                    delay=delay,
                )
            )

        if path == "DRd":
            # L1D observes demand loads only (section 5.9 blind spot).
            lam_hit = view.l1_hits / clocks
            lam_miss = view.l1_misses / clocks
            add("L1D", lam_hit, delays["L1D_hit"])
            add("L1D", lam_miss, W_TAG_L1)
            # LFB: hit-only model (the load is part of the uncore path).
            lfb_delay = self._lfb_residency(view, clocks)
            add("LFB", (view.fb_hits + view.lfb_inserts) / clocks, lfb_delay)
        # L2: hit and miss flows per path.
        lam_hit = view.l2_hits(path) / clocks
        lam_miss = view.l2_misses(path) / clocks
        add("L2", lam_hit, delays["L2_hit"])
        add("L2", lam_miss, W_TAG_L2)
        # LLC: hits serve, misses park in the TOR until completion.
        llc_hits = view.ocr(path, "l3_hit") + view.ocr(path, "snc_cache")
        llc_misses = max(
            0.0, view.ocr(path, "any_response") - llc_hits
        )
        tor_miss_delay = cha.avg_tor_latency(path, "miss")
        add("LLC", llc_hits / clocks, delays["LLC_hit"])
        add("LLC", llc_misses / clocks, tor_miss_delay or delays["MEM"])
        return out

    def _lfb_residency(self, view: CorePMUView, clocks: float) -> float:
        """Mean LFB entry residency from its occupancy integral."""
        inserts = view.lfb_inserts
        if inserts <= 0:
            return 0.0
        return view.lfb_occupancy / inserts

    # -- FlexBus+MC (terminal DIMM stage, hit-only model) ------------------------

    def _flexbus_estimates(
        self, snapshot: Snapshot, cha: CHAPMUView, clocks: float
    ) -> List[QueueEstimate]:
        delta = snapshot.delta
        out: List[QueueEstimate] = []
        read_weights = {
            path: cha.tor_inserts(path, "miss_cxl") for path in ANALYZED_PATHS
        }
        total_reads = sum(read_weights.values())
        for node in cxl_node_ids(delta):
            m2p = M2PCIeView(delta, node)
            device = CXLDeviceView(delta, node)
            served = m2p.data_responses
            if served <= 0:
                continue
            # W_hit: mean residency across the FlexBus + device complex.
            queue_cycles = (
                m2p.ingress_occupancy
                + m2p.get("unc_m2p_link_occupancy")
                + device.pack_buf_occupancy("mem_req")
                + device.mc_occupancy
            )
            w_hit = queue_cycles / served
            if not math.isfinite(w_hit) or w_hit < 0.0:
                continue
            for path, weight in read_weights.items():
                share = weight / total_reads if total_reads > 0 else 0.0
                rate = served * share / clocks
                if not (rate > 0.0) or not math.isfinite(rate):
                    continue
                out.append(
                    QueueEstimate(
                        component="FlexBus+MC",
                        path=path,
                        core_id=-1,
                        queue_length=rate * w_hit,
                        arrival_rate=rate,
                        delay=w_hit,
                    )
                )
        return out

    # -- CXL fabric (switch ports as middle Clos stages) ---------------------

    def _fabric_ports(
        self, delta: Dict[Tuple[str, str], float], clocks: float
    ) -> List[FabricPortEstimate]:
        """One estimate per switch output port, from the per-port
        ``unc_cxlsw_*.<port>`` events under scope ``cxlsw.<switch>``."""
        switches: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (scope, event), value in delta.items():
            if scope.startswith("cxlsw.") and "." in event:
                stem, port = event.split(".", 1)
                per_port = switches.setdefault(scope[len("cxlsw."):], {})
                per_port.setdefault(port, {})[stem[len("unc_cxlsw_"):]] = value
        out: List[FabricPortEstimate] = []
        for switch in sorted(switches):
            per_port = switches[switch]
            for port in sorted(per_port):
                measures = per_port[port]
                occupancy = measures.get("occupancy", 0.0)
                forwarded = measures.get("fwd", 0.0)
                queue_length = occupancy / clocks
                delay = occupancy / forwarded if forwarded > 0 else 0.0
                if not math.isfinite(queue_length) or not math.isfinite(delay):
                    continue
                out.append(
                    FabricPortEstimate(
                        switch=switch,
                        port=port,
                        queue_length=queue_length,
                        arrival_rate=forwarded / clocks,
                        delay=delay,
                        forwarded=forwarded,
                        retries=measures.get("retry", 0.0),
                    )
                )
        return out

    def _device_queue(
        self, delta: Dict[Tuple[str, str], float], clocks: float
    ) -> float:
        """Time-average occupancy of all device-side queues (pack buffers
        + device MC) - the fabric diagnosis's other scale pan."""
        total = 0.0
        for node in cxl_node_ids(delta):
            device = CXLDeviceView(delta, node)
            total += (
                device.pack_buf_occupancy("mem_req")
                + device.pack_buf_occupancy("mem_data")
                + device.mc_occupancy
            )
        return total / clocks

    def _fabric_estimates(
        self,
        ports: List[FabricPortEstimate],
        cha: CHAPMUView,
        clocks: float,
    ) -> List[QueueEstimate]:
        """Fold the fabric into the per-path culprit competition.

        The whole fabric contributes one "CXLFabric" estimate per path,
        weighted by the same miss_cxl TOR shares as FlexBus+MC, so a
        congested switch port can win ``culprit()`` outright."""
        total_queue = sum(p.queue_length for p in ports)
        total_fwd = sum(p.forwarded for p in ports)
        if total_queue <= 0.0 or total_fwd <= 0.0:
            return []
        delay = total_queue * clocks / total_fwd
        read_weights = {
            path: cha.tor_inserts(path, "miss_cxl") for path in ANALYZED_PATHS
        }
        total_reads = sum(read_weights.values())
        out: List[QueueEstimate] = []
        for path, weight in read_weights.items():
            share = weight / total_reads if total_reads > 0 else 0.0
            rate = total_fwd * share / clocks
            if not (rate > 0.0) or not math.isfinite(rate):
                continue
            out.append(
                QueueEstimate(
                    component="CXLFabric",
                    path=path,
                    core_id=-1,
                    queue_length=rate * delay,
                    arrival_rate=rate,
                    delay=delay,
                )
            )
        return out
