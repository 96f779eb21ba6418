"""Machine assembly: wires every architectural module into one server.

A :class:`Machine` is the complete simulated host - the graph ``G=(V,E)``
of section 4.2 - plus its PMU registry.  Workloads are pinned to cores
(the paper's "running environment" input, Figure 5-a); `run` drives the
event engine until all pinned workloads finish or a deadline passes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..pmu.registry import CounterRegistry
from .address import AddressSpace, NodeKind, NumaNode
from .cha import CHA
from .core import Core
from .cxl_device import CXLDevice
from .engine import Engine
from .flexbus import M2PCIe
from .hooks import EngineHooks, StagePort, iter_ports
from .imc import IMC
from .mesh import Mesh
from .prefetch import CorePrefetchers
from .request import MemOp
from .topology import MachineConfig, spr_config


def _build_nodes(config: MachineConfig) -> List[NumaNode]:
    nodes = [NumaNode(0, NodeKind.LOCAL_DDR, 0, config.local_mem_bytes, socket=0)]
    base = nodes[-1].end
    if config.remote_mem_bytes:
        nodes.append(
            NumaNode(1, NodeKind.REMOTE_DDR, base, config.remote_mem_bytes, socket=1)
        )
        base = nodes[-1].end
    # One CPU-less NUMA node per CXL Type-3 endpoint (memory pooling).
    for _device in range(config.num_cxl_devices):
        nodes.append(
            NumaNode(len(nodes), NodeKind.CXL, base, config.cxl_mem_bytes, socket=0)
        )
        base = nodes[-1].end
    return nodes


class Machine:
    """One simulated server: cores, uncore, memory, CXL endpoint, PMUs."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or spr_config()
        self.host_id = self.config.host_id
        self.engine = Engine()
        self.pmu = CounterRegistry()
        self.address_space = AddressSpace(_build_nodes(self.config))
        self.mesh = Mesh(self.engine, hop_latency=self.config.mesh_hop_latency)
        self.imc = IMC(
            self.engine,
            self.config.local_dram,
            self.pmu,
            queue_depth=self.config.imc_queue_depth,
        )
        self.cxl_devices: Dict[int, CXLDevice] = {}
        self.m2pcie: Dict[int, M2PCIe] = {}
        flit = self.config.flit_bytes
        for node in self.address_space.cxl_nodes:
            port = M2PCIe(
                self.engine,
                self.pmu,
                scope=f"m2pcie{node.node_id}",
                link_bytes_per_cycle=self.config.flexbus_bytes_per_cycle,
                link_propagation=self.config.flexbus_propagation,
                ingress_depth=self.config.m2pcie_ingress_depth,
                data_flit_bytes=flit.data_flit,
                header_flit_bytes=flit.header_flit,
            )
            device = CXLDevice(
                self.engine,
                self.pmu,
                self.config.cxl_dram,
                scope=f"cxl{node.node_id}",
                pack_buf_depth=self.config.cxl_pack_buf_depth,
                mc_queue_depth=self.config.cxl_mc_queue_depth,
                controller_latency=self.config.cxl_controller_latency,
            )
            port.device = device
            self.m2pcie[node.node_id] = port
            self.cxl_devices[node.node_id] = device
        self.cha = CHA(
            self.engine,
            self.pmu,
            self.address_space,
            self.mesh,
            self.imc,
            self.m2pcie,
            num_slices=self.config.llc_slices,
            num_clusters=self.config.snc_clusters,
            llc_size_bytes=self.config.llc_size,
            llc_ways=self.config.llc_ways,
            llc_policy=self.config.llc_policy,
            llc_hit_latency=self.config.llc_hit_latency,
            snoop_latency=self.config.snoop_latency,
            cores_per_cluster=self.config.cores_per_cluster,
        )
        self.cha.writeback_sink = self._llc_writeback
        self.cores: List[Core] = [
            Core(
                core_id,
                self.engine,
                self.pmu,
                self.cha,
                self.address_space,
                l1d_size=self.config.l1d_size,
                l1d_ways=self.config.l1d_ways,
                l2_size=self.config.l2_size,
                l2_ways=self.config.l2_ways,
                sb_entries=self.config.sb_entries,
                lfb_entries=self.config.lfb_entries,
                max_outstanding_loads=self.config.max_outstanding_loads,
                l1_latency=self.config.l1_latency,
                l2_latency=self.config.l2_latency,
                prefetchers=CorePrefetchers(
                    l1_degree=self.config.l1_pf_degree,
                    l2_degree=self.config.l2_pf_degree,
                    enabled=self.config.prefetch_enabled,
                ),
            )
            for core_id in range(self.config.num_cores)
        ]
        self._active = 0
        # The switched CXL fabric, once attach_fabric wires one in.
        self.fabric = None
        if self.config.fabric is not None:
            from .fabric import attach_fabric

            attach_fabric(self, self.config.fabric)

    # -- observability -------------------------------------------------------

    def hook_ports(self) -> Iterator["StagePort"]:
        """The machine's named recorder binding points (see sim.hooks)."""
        return iter_ports(self)

    def attach_recorder(self, recorder: "EngineHooks") -> None:
        """Wire an :class:`~repro.sim.hooks.EngineHooks` implementation
        (e.g. :class:`repro.obs.FlightRecorder`) into every stage.

        Components get their ``recorder`` attribute (hop/sampling sites),
        hardware FIFOs get the recorder as queue observer (fine-grained
        queue events) and register their ``QueueStats`` for the
        occupancy time series.  With no recorder attached (the default)
        all of these stay ``None`` and the hot path is untouched.
        """
        for port in self.hook_ports():
            port.bind(recorder)

    def detach_recorder(self) -> None:
        """Unhook whatever recorder is attached; hot path goes bare again."""
        for port in self.hook_ports():
            port.unbind()

    # -- memory management helpers -------------------------------------------

    def _llc_writeback(self, address: int) -> None:
        """Dirty LLC eviction: stream the line to its home memory."""
        self.cha.writeback(address, core_id=0)

    def alloc(self, node_id: int, num_bytes: int, vpn_base: int) -> None:
        """Back a virtual region on one NUMA node (numactl --membind)."""
        pages = max(1, (num_bytes + 4095) // 4096)
        self.address_space.alloc_pages(node_id, pages, vpn_base)

    @property
    def local_node(self) -> NumaNode:
        return self.address_space.local_nodes[0]

    @property
    def cxl_node(self) -> NumaNode:
        return self.address_space.cxl_nodes[0]

    # -- execution -----------------------------------------------------------

    def pin(
        self,
        core_id: int,
        workload: Iterator[MemOp],
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Pin a workload's op stream to a core (taskset -c)."""
        self._active += 1

        def finished() -> None:
            self._active -= 1
            if on_done is not None:
                on_done()

        self.cores[core_id].run(workload, on_done=finished)

    def migrate(
        self,
        old_core_id: int,
        new_core_id: int,
        on_migrated: Optional[Callable[[], None]] = None,
    ) -> None:
        """Move the running workload from one core to another.

        Preemption happens at the next op boundary; in-flight requests
        drain on the old core.  The completion callback (and therefore
        the machine's active count) travels with the workload.
        """
        if old_core_id == new_core_id:
            raise ValueError("migration target equals source")
        if self.cores[new_core_id].running:
            raise RuntimeError(f"core {new_core_id} is busy")

        def handover(remaining, on_done) -> None:
            self.cores[new_core_id].run(remaining, on_done=on_done)
            if on_migrated is not None:
                on_migrated()

        self.cores[old_core_id].request_preempt(handover)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drive the event engine; returns the final cycle count."""
        return self.engine.run(until=until, max_events=max_events)

    @property
    def all_idle(self) -> bool:
        return self._active == 0

    def dismantle(self) -> None:
        """Break the machine's reference cycles; it cannot run again.

        Stages hand the PMU bound methods as sync hooks, each server
        calls its stage back through a bound method, the CHA writes back
        through the machine, a pinned core keeps the ``pin`` closure
        (and, through it, the profiler) and its last load, which calls
        the core back on an LLC miss.  Each is a cycle that only a
        full garbage collection frees, after traversing the machine's
        caches; with them broken, dropping the last reference frees the
        machine at once.  Counters already read stay valid.
        """
        self.pmu.clear_sync_hooks()
        self.engine.clear()
        self.cha.writeback_sink = None
        servers = [self.mesh._server]
        for channel in self.imc.channels:
            servers += (channel._rd_server, channel._wr_server)
        for port in self.m2pcie.values():
            servers += (port._ingress_server, port.down_link._server,
                        port.up_link._server)
        for device in self.cxl_devices.values():
            servers.append(device._mc_server)
        if self.fabric is not None:
            # A fabric endpoint and its root port point at each other; a
            # background injector reaches the fabric and the devices, and
            # its requests still in flight there call it back.
            for port in self.m2pcie.values():
                port.device = None
            for switch in self.fabric.switches.values():
                servers += (port._server for port in switch.ports.values())
            for injector in self.fabric.injectors:
                injector.fabric = injector.devices = None
        for server in servers:
            server.on_done = server.service_time = None
        for core in self.cores:
            core._done_callback = core._last_load = None

    def snapshot_counters(self) -> Dict:
        return self.pmu.snapshot(self.engine.now)

    @property
    def now(self) -> float:
        return self.engine.now
