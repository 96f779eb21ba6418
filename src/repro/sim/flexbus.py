"""M2PCIe block and FlexBus link.

CXL.mem rides the Flex Bus I/O architecture: requests leaving the mesh for
a CXL DIMM funnel through the per-root-port M2PCIe block (ingress queue),
cross the FlexBus link as flits, and responses return through the M2PCIe
egress queue (Table 3's ``unc_m2p_*`` counters).  The link is the shared
bandwidth pipe where the paper finds concurrent CXL mFlows first contend
(case 4, Figure 9-h), so it is modelled as a real credit-limited server.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from ..pmu.registry import CounterRegistry
from .engine import Engine
from .queues import MonitoredQueue, Server
from .request import CXLOpcode, MemRequest

# Flit sizing (section 2.1): 68B flits carry a 64B payload for data
# messages; request/response-only flits are header-sized.
DATA_FLIT_BYTES = 68.0
HEADER_FLIT_BYTES = 16.0

# Enum member lookups are attribute calls on CPython 3.11; the hot
# paths use these module-level aliases instead.
_M2S_REQ = CXLOpcode.M2S_REQ
_M2S_RWD = CXLOpcode.M2S_RWD
_S2M_DRS = CXLOpcode.S2M_DRS
_S2M_NDR = CXLOpcode.S2M_NDR


class FlexBusLink:
    """One direction of the FlexBus: latency + serialisation bandwidth."""

    def __init__(
        self,
        engine: Engine,
        bytes_per_cycle: float,
        propagation: float,
        name: str,
        queue_depth: int = 256,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError(f"{name}: non-positive link bandwidth")
        self.engine = engine
        self.bytes_per_cycle = bytes_per_cycle
        self.propagation = propagation
        self.queue = MonitoredQueue(engine, queue_depth, name=name)
        self._server = Server(
            engine,
            self.queue,
            service_time=self._serialize,
            on_done=self._launch,
            name=name,
        )

    def _serialize(self, item) -> float:
        flit_bytes, _ = item
        return flit_bytes / self.bytes_per_cycle

    def _launch(self, item) -> None:
        _, callback = item
        self.engine.after(self.propagation, callback)

    def transmit(self, flit_bytes: float, on_arrival: Callable[[], None]) -> bool:
        return self._server.submit((flit_bytes, on_arrival))

    def utilization(self, elapsed: float) -> float:
        return self._server.utilization(elapsed)


class M2PCIe:
    """Host-side root port block for one CXL endpoint.

    ``submit`` carries M2S traffic device-ward; the attached CXL device
    calls :meth:`deliver_response` for S2M traffic, which lands in the
    egress queue and is handed back to the CHA after a mesh hop.
    """

    def __init__(
        self,
        engine: Engine,
        pmu: CounterRegistry,
        scope: str = "m2pcie0",
        link_bytes_per_cycle: float = 9.0,
        link_propagation: float = 90.0,
        ingress_depth: int = 64,
        egress_depth: int = 64,
        data_flit_bytes: float = DATA_FLIT_BYTES,
        header_flit_bytes: float = HEADER_FLIT_BYTES,
    ) -> None:
        self.engine = engine
        self.pmu = pmu
        self.scope = scope
        self.data_flit_bytes = data_flit_bytes
        self.header_flit_bytes = header_flit_bytes
        self.ingress = MonitoredQueue(engine, ingress_depth, name=f"{scope}.rxc")
        self.egress = MonitoredQueue(engine, egress_depth, name=f"{scope}.txc")
        self.down_link = FlexBusLink(
            engine, link_bytes_per_cycle, link_propagation, f"{scope}.down"
        )
        self.up_link = FlexBusLink(
            engine, link_bytes_per_cycle, link_propagation, f"{scope}.up"
        )
        self.device = None  # wired by Machine
        # Flight recorder; None unless the profiling spec asked for tracing.
        self.recorder = None
        # Port arbitration cost per request; QoS throttling (CXL 3.x
        # DevLoad feedback) raises this to pace injection.
        self.arbitration_cycles = 4.0
        self._ingress_server = Server(
            engine,
            self.ingress,
            service_time=lambda _: self.arbitration_cycles,
            on_done=self._to_link,
            name=f"{scope}.ingress",
        )
        pmu.on_sync(self._sync)

    # -- M2S (host -> device) ----------------------------------------------

    def submit(
        self, request: MemRequest, on_response: Callable[[MemRequest], None]
    ) -> bool:
        """Accept one request from the mesh into the ingress queue."""
        request.cxl_opcode = (
            _M2S_RWD if request.is_store else _M2S_REQ
        )
        ok = self._ingress_server.submit((request, on_response))
        if ok:
            self.pmu.add(self.scope, "unc_m2p_rxc_inserts.all")
            if self.recorder is not None:
                self.recorder.hop(request, "FlexBus+MC", "enq")
        return ok

    def wait_for_slot(self, retry: Callable[[], None]) -> None:
        self.ingress.space_waiter.wait(retry)

    def _to_link(self, item) -> None:
        request, on_response = item
        flit = self.data_flit_bytes if request.is_store else self.header_flit_bytes
        self.down_link.transmit(
            flit, partial(self._arrive_at_device, request, on_response)
        )

    def _arrive_at_device(self, request, on_response) -> None:
        if self.device is None:
            raise RuntimeError(f"{self.scope}: no CXL device attached")
        self.device.receive(request, partial(self._respond, on_response))

    # -- S2M (device -> host) -------------------------------------------------

    def _respond(
        self, on_response: Callable[[MemRequest], None], request: MemRequest
    ) -> None:
        flit = self.header_flit_bytes if request.is_store else self.data_flit_bytes
        self.up_link.transmit(flit, partial(self._egress, request, on_response))

    def _egress(self, request, on_response) -> None:
        if request.is_store:
            self.pmu.add(self.scope, "unc_m2p_txc_inserts.ak")
            request.cxl_opcode = _S2M_NDR
        else:
            self.pmu.add(self.scope, "unc_m2p_txc_inserts.bl")
            request.cxl_opcode = _S2M_DRS
        self.egress.try_push(request)  # metering only; drained immediately
        if not self.egress.empty:
            self.egress.pop()
        if self.recorder is not None:
            self.recorder.hop(request, "FlexBus+MC", "deq")
        on_response(request)

    def _sync(self, now: float) -> None:
        self.ingress.stats.sync(now)
        self.down_link.queue.stats.sync(now)
        self.up_link.queue.stats.sync(now)
        self.pmu.set(
            self.scope, "unc_m2p_rxc_cycles_ne.all", self.ingress.stats.cycles_not_empty
        )
        self.pmu.set(
            self.scope,
            "unc_m2p_rxc_occupancy.all",
            self.ingress.stats.occupancy_integral,
        )
        # Link serialisation queues: credit-starvation cycles on the FlexBus.
        self.pmu.set(
            self.scope,
            "unc_m2p_link_occupancy",
            self.down_link.queue.stats.occupancy_integral
            + self.up_link.queue.stats.occupancy_integral,
        )
        self.pmu.set(
            self.scope,
            "unc_m2p_link_cycles_ne",
            self.down_link.queue.stats.cycles_not_empty
            + self.up_link.queue.stats.cycles_not_empty,
        )
