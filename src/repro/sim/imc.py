"""Integrated Memory Controller (IMC).

The IMC fronts the socket-local DDR DIMMs.  Each channel exposes a Read
Pending Queue (RPQ) and Write Pending Queue (WPQ) plus CAS command
counters - exactly the meters of the uncore PMU's IMC box (Table 3).  The
paper's key observation (Figure 4-a) is that CXL traffic *bypasses* the
IMC queues because the CXL DIMM encloses its own device-side queues; in
this simulator that falls out naturally because only LOCAL_DDR-routed
requests are ever submitted here.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from ..pmu.registry import CounterRegistry
from .dram import DRAMTiming
from .engine import Engine
from .queues import MonitoredQueue, Server
from .request import MemRequest


class _Channel:
    """One pseudo-channel: RPQ + WPQ in front of the DRAM media."""

    __slots__ = (
        "engine",
        "timing",
        "scope",
        "pmu",
        "rpq",
        "wpq",
        "recorder",
        "_trailing",
        "_rd_server",
        "_wr_server",
        "_cas_rd_keys",
        "_cas_wr_keys",
    )

    def __init__(
        self,
        engine: Engine,
        timing: DRAMTiming,
        scope: str,
        pmu: CounterRegistry,
        queue_depth: int = 64,
    ) -> None:
        self.engine = engine
        self.timing = timing
        self.scope = scope
        self.pmu = pmu
        self.rpq = MonitoredQueue(engine, queue_depth, name=f"{scope}.rpq")
        self.wpq = MonitoredQueue(engine, queue_depth, name=f"{scope}.wpq")
        # Flight recorder; None unless the profiling spec asked for tracing.
        self.recorder = None
        self._trailing = timing.trailing_latency
        self._cas_rd_keys = ((scope, "unc_m_cas_count.rd"),
                             (scope, "unc_m_cas_count.all"))
        self._cas_wr_keys = ((scope, "unc_m_cas_count.wr"),
                             (scope, "unc_m_cas_count.all"))
        self._rd_server = Server(
            engine,
            self.rpq,
            service_time=timing.service_cycles,
            on_done=self._read_done,
            name=f"{scope}.rd",
        )
        self._wr_server = Server(
            engine,
            self.wpq,
            service_time=timing.service_cycles,
            on_done=self._write_done,
            name=f"{scope}.wr",
        )
        pmu.on_sync(self._sync)

    def submit_read(
        self, request: MemRequest, on_done: Callable[[MemRequest], None]
    ) -> bool:
        ok = self._rd_server.submit((request, on_done))
        if ok:
            self.pmu.add(self.scope, "unc_m_rpq_inserts")
            if self.recorder is not None:
                self.recorder.hop(request, "IMC", "enq")
        return ok

    def submit_write(
        self, request: MemRequest, on_done: Callable[[MemRequest], None]
    ) -> bool:
        ok = self._wr_server.submit((request, on_done))
        if ok:
            self.pmu.add(self.scope, "unc_m_wpq_inserts")
            if self.recorder is not None:
                self.recorder.hop(request, "IMC", "enq")
        return ok

    def _read_done(self, item) -> None:
        request, on_done = item
        self.pmu.add_many(self._cas_rd_keys)
        if self.recorder is not None:
            self.recorder.hop(request, "IMC", "deq")
        # Media latency beyond the bandwidth-limited channel occupancy.
        self.engine.after(self._trailing, partial(on_done, request))

    def _write_done(self, item) -> None:
        request, on_done = item
        self.pmu.add_many(self._cas_wr_keys)
        if self.recorder is not None:
            self.recorder.hop(request, "IMC", "deq")
        self.engine.after(self._trailing, partial(on_done, request))

    def _sync(self, now: float) -> None:
        self.rpq.stats.sync(now)
        self.wpq.stats.sync(now)
        self.pmu.set(self.scope, "unc_m_rpq_cycles_ne", self.rpq.stats.cycles_not_empty)
        self.pmu.set(self.scope, "unc_m_rpq_occupancy", self.rpq.stats.occupancy_integral)
        self.pmu.set(self.scope, "unc_m_wpq_cycles_ne", self.wpq.stats.cycles_not_empty)
        self.pmu.set(self.scope, "unc_m_wpq_occupancy", self.wpq.stats.occupancy_integral)

    @property
    def pending(self) -> int:
        return len(self.rpq) + len(self.wpq)


class IMC:
    """Socket-local memory controller with channel interleaving."""

    __slots__ = ("engine", "imc_id", "timing", "channels")

    def __init__(
        self,
        engine: Engine,
        timing: DRAMTiming,
        pmu: CounterRegistry,
        imc_id: int = 0,
        queue_depth: int = 64,
    ) -> None:
        self.engine = engine
        self.imc_id = imc_id
        self.timing = timing
        self.channels: List[_Channel] = [
            _Channel(engine, timing, f"imc{imc_id}.ch{c}", pmu, queue_depth)
            for c in range(timing.channels)
        ]

    def _route(self, request: MemRequest) -> _Channel:
        """Cacheline interleaving across channels (standard XOR-free map)."""
        return self.channels[request.line % len(self.channels)]

    def submit(
        self, request: MemRequest, on_done: Callable[[MemRequest], None]
    ) -> bool:
        """Queue one request; False when the target channel queue is full."""
        channel = self.channels[request.line % len(self.channels)]
        if request.is_store:
            return channel.submit_write(request, on_done)
        return channel.submit_read(request, on_done)

    def wait_for_slot(self, request: MemRequest, retry: Callable[[], None]) -> None:
        """Park a retry callback on the full channel queue."""
        channel = self._route(request)
        queue = channel.wpq if request.is_store else channel.rpq
        queue.space_waiter.wait(retry)

    @property
    def pending(self) -> int:
        return sum(c.pending for c in self.channels)
