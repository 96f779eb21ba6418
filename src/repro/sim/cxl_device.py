"""CXL Type-3 memory device.

The device (an Agilex FPGA card with DDR4 on the SPR testbed, Micron CZ120
on EMR) receives M2S Req/RwD flits, packs them into ingress packing
buffers (Mem Request for reads, Mem Data for writes), drains them through
its own memory controller into the media, and emits S2M DRS/NDR through
egress packing buffers (section 3.5, Table 4 ``unc_cxlcm_*`` counters).

Because the device has its own command queues, host-side IMC queues stay
empty for CXL traffic - the paper's Figure 4-a observation - and queue
build-up under load happens *here*, where PFEstimator's back-propagation
starts (Algorithm 2 line 3).
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable

from ..pmu.registry import CounterRegistry
from .dram import DRAMTiming
from .engine import Engine
from .queues import MonitoredQueue, Server
from .request import MemRequest


class QoSLoadClass(enum.Enum):
    """CXL 3.x QoS telemetry for memory (section 3.5)."""

    LIGHT = "light"
    OPTIMAL = "optimal"
    MODERATE_OVERLOAD = "moderate_overload"
    SEVERE_OVERLOAD = "severe_overload"


class CXLDevice:
    """Type-3 host-managed device memory endpoint."""

    __slots__ = (
        "engine",
        "pmu",
        "scope",
        "timing",
        "controller_latency",
        "rx_req",
        "rx_data",
        "mc_queue",
        "unpack_latency",
        "_mc_server",
        "_respond_latency",
        "recorder",
        "tx_inserts_mem_req",
        "tx_inserts_mem_data",
        "reads_served",
        "writes_served",
    )

    def __init__(
        self,
        engine: Engine,
        pmu: CounterRegistry,
        timing: DRAMTiming,
        scope: str = "cxl0",
        pack_buf_depth: int = 32,
        mc_queue_depth: int = 48,
        controller_latency: float = 60.0,
    ) -> None:
        self.engine = engine
        self.pmu = pmu
        self.scope = scope
        self.timing = timing
        self.controller_latency = controller_latency
        # Ingress packing buffers: Mem Request (reads), Mem Data (writes).
        # A flit occupies its packing buffer until the device MC accepts
        # the command, so MC back-pressure is visible as pack-buffer
        # occupancy/full cycles (the Table 4 counters).
        self.rx_req = MonitoredQueue(engine, pack_buf_depth, name=f"{scope}.rx_req")
        self.rx_data = MonitoredQueue(engine, pack_buf_depth, name=f"{scope}.rx_data")
        # Device MC command queue in front of the media.
        self.mc_queue = MonitoredQueue(engine, mc_queue_depth, name=f"{scope}.mc")
        self.unpack_latency = 2.0
        self._mc_server = Server(
            engine,
            self.mc_queue,
            service_time=timing.service_cycles,
            on_done=self._media_done,
            servers=timing.channels,
            name=f"{scope}.media",
        )
        self._respond_latency = controller_latency + timing.trailing_latency
        # Flight recorder; None unless the profiling spec asked for tracing.
        self.recorder = None
        self.tx_inserts_mem_req = 0   # NDR completions
        self.tx_inserts_mem_data = 0  # DRS data responses
        self.reads_served = 0
        self.writes_served = 0
        pmu.on_sync(self._sync)

    # -- M2S receive -----------------------------------------------------

    def receive(
        self, request: MemRequest, respond: Callable[[MemRequest], None]
    ) -> None:
        """A flit arrived off the FlexBus; pack it for the device MC."""
        buffer = self.rx_data if request.is_store else self.rx_req
        event = (
            "unc_cxlcm_rxc_pack_buf_inserts.mem_data"
            if request.is_store
            else "unc_cxlcm_rxc_pack_buf_inserts.mem_req"
        )
        if buffer.try_push((request, respond)):
            self.pmu.add(self.scope, event)
            if self.recorder is not None:
                self.recorder.hop(request, "CXL_MC", "enq")
            self.engine.after(self.unpack_latency, partial(self._drain, buffer))
        else:
            # Packing buffer full: link-level credits would throttle the
            # sender; it re-checks every 4 cycles and re-enters receive
            # once a slot frees (back-pressure, never a drop).
            buffer.poll_space(partial(self.receive, request, respond))

    def _drain(self, buffer: MonitoredQueue) -> None:
        """Move the buffer head into the MC once the MC has room."""
        if buffer.empty:
            return
        item = buffer.peek()
        if self._mc_server.submit(item):
            buffer.pop()
            if not buffer.empty:
                self.engine.after(self.unpack_latency, partial(self._drain, buffer))
        else:
            # MC full: the flit stays packed; retry when the media advances.
            self.mc_queue.space_waiter.wait(partial(self._drain, buffer))

    # -- media + S2M respond ------------------------------------------------

    def _media_done(self, item) -> None:
        request, respond = item
        if self.recorder is not None:
            self.recorder.hop(request, "CXL_MC", "deq")
        if request.is_store:
            self.writes_served += 1
            self.tx_inserts_mem_req += 1  # NDR goes out the Mem Req egress
        else:
            self.reads_served += 1
            self.tx_inserts_mem_data += 1  # DRS carries data
        self.engine.after(self._respond_latency, partial(respond, request))

    # -- telemetry ------------------------------------------------------------

    def qos_class(self, elapsed: float) -> QoSLoadClass:
        """CXL-spec QoS telemetry derived from MC queue pressure."""
        if elapsed <= 0:
            return QoSLoadClass.LIGHT
        occupancy = self.mc_queue.stats.mean_occupancy(elapsed)
        capacity = self.mc_queue.capacity or 1
        ratio = occupancy / capacity
        if ratio < 0.25:
            return QoSLoadClass.LIGHT
        if ratio < 0.5:
            return QoSLoadClass.OPTIMAL
        if ratio < 0.8:
            return QoSLoadClass.MODERATE_OVERLOAD
        return QoSLoadClass.SEVERE_OVERLOAD

    def _sync(self, now: float) -> None:
        for queue, tag in ((self.rx_req, "mem_req"), (self.rx_data, "mem_data")):
            queue.stats.sync(now)
            self.pmu.set(
                self.scope,
                f"unc_cxlcm_rxc_pack_buf_ne.{tag}",
                queue.stats.cycles_not_empty,
            )
            self.pmu.set(
                self.scope,
                f"unc_cxlcm_rxc_pack_buf_full.{tag}",
                queue.stats.cycles_full,
            )
            self.pmu.set(
                self.scope,
                f"unc_cxlcm_rxc_pack_buf_occupancy.{tag}",
                queue.stats.occupancy_integral,
            )
        self.mc_queue.stats.sync(now)
        self.pmu.set(
            self.scope, "unc_cxlcm_mc_occupancy", self.mc_queue.stats.occupancy_integral
        )
        self.pmu.set(
            self.scope, "unc_cxlcm_mc_cycles_ne", self.mc_queue.stats.cycles_not_empty
        )
        self.pmu.set(
            self.scope,
            "unc_cxlcm_txc_pack_buf_inserts.mem_req",
            float(self.tx_inserts_mem_req),
        )
        self.pmu.set(
            self.scope,
            "unc_cxlcm_txc_pack_buf_inserts.mem_data",
            float(self.tx_inserts_mem_data),
        )
