"""Mesh interconnect (NoC).

Cores, CHA/LLC slices, IMCs and the M2PCIe block all sit on the socket's
2-D mesh (section 2.2).  The paper's counters expose no per-router
queueing, so we model the mesh as its PMUs see it: a fixed hop latency per
segment plus an aggregate bandwidth pipe whose utilisation PathFinder can
report as "available bandwidth" on an edge (section 4.6's edge records).
Congestion effects the paper measures concentrate at the endpoints (TOR,
RPQ/WPQ, M2PCIe ingress), which are modelled with real bounded queues.
"""

from __future__ import annotations

from typing import Callable

from .engine import Engine
from .queues import MonitoredQueue, Server
from .request import CACHELINE


class Mesh:
    """Latency + shared-bandwidth model of one socket's interconnect."""

    __slots__ = (
        "engine",
        "hop_latency",
        "core_to_cha",
        "cha_to_imc",
        "cha_to_io",
        "snc_penalty",
        "socket_penalty",
        "_queue",
        "_server",
        "transferred_lines",
    )

    def __init__(
        self,
        engine: Engine,
        hop_latency: float = 4.0,
        avg_hops_core_to_cha: int = 3,
        avg_hops_cha_to_imc: int = 4,
        avg_hops_cha_to_io: int = 5,
        snc_penalty: float = 12.0,
        socket_penalty: float = 120.0,
        bytes_per_cycle: float = 512.0,
    ) -> None:
        self.engine = engine
        self.hop_latency = hop_latency
        self.core_to_cha = hop_latency * avg_hops_core_to_cha
        self.cha_to_imc = hop_latency * avg_hops_cha_to_imc
        self.cha_to_io = hop_latency * avg_hops_cha_to_io
        self.snc_penalty = snc_penalty
        self.socket_penalty = socket_penalty
        # One aggregate pipe: generous, so it only matters under extreme load.
        self._queue = MonitoredQueue(engine, capacity=4096, name="mesh")
        self._server = Server(
            engine,
            self._queue,
            service_time=CACHELINE / bytes_per_cycle,
            on_done=self._deliver,
            servers=8,
            name="mesh",
        )
        self.transferred_lines = 0

    def _deliver(self, item) -> None:
        latency, callback = item
        self.transferred_lines += 1
        self.engine.after(latency, callback)

    def send(self, latency: float, callback: Callable[[], None]) -> None:
        """Move one cacheline-sized message across the mesh."""
        if not self._server.submit((latency, callback)):
            # The aggregate pipe overflowed; deliver late rather than drop.
            self.engine.after(latency * 2, callback)

    # -- canned segment latencies --------------------------------------------

    def core_to_cha_latency(self, same_cluster: bool) -> float:
        base = self.core_to_cha
        return base if same_cluster else base + self.snc_penalty

    def cha_to_memory_latency(self, cross_socket: bool = False) -> float:
        base = self.cha_to_imc
        return base + (self.socket_penalty if cross_socket else 0.0)

    def cha_to_flexbus_latency(self) -> float:
        return self.cha_to_io

    def utilization(self, elapsed: float) -> float:
        return self._server.utilization(elapsed)
