"""Graph-described multi-host switched CXL fabrics.

The paper's evaluation stops at directly-attached Type-3 devices, but its
introduction motivates multi-tier switched pools ("a disaggregated memory
pool can provide tens to hundreds of terabytes").  This module models
that step as a fabric graph: hosts x switches x pooled Type-3 devices,
described declaratively by a :class:`FabricSpec` and compiled into a
routed mesh of output-serialised :class:`SwitchPort` stages.  A single
switch in front of one host is the same graph with one host, one switch
and N devices.

Model
-----

* **Topology** is an undirected graph.  Every link must touch at least one
  switch (hosts and devices never connect directly); routes are shortest
  paths with a deterministic tie-break, computed once at compile time.
* **Forwarding** is store-and-forward per hop: a flit arriving at a switch
  is serialised onto the output port toward the next hop (bandwidth
  ``bytes_per_cycle``), then pays ``forward_latency`` to traverse.  With
  ``flit_mode="PBR"`` every hop adds the port-based-routing header bytes
  (section 2.1's PBR flits for switched fabrics).
* **Credit backpressure**: when an output port's input queue is full the
  flit parks in the switch's per-port pending list (upstream credits
  withheld) and a ``unc_cxlsw_retry.*`` counter ticks.  Pending flits
  drain strictly head-of-line, so delivery per (source, destination) pair
  is FIFO - the ordering the CXL.mem protocol guarantees per link.
* **Pooling**: several hosts share the downstream devices.  The *primary*
  host is the simulated :class:`~repro.sim.machine.Machine` (all of its
  CXL traffic transits the fabric); every other host is a background
  traffic injector whose flits contend on the shared switch ports and
  device-side queues - the cross-host interference no single-host profile
  can show.

Each switch publishes per-port ``unc_cxlsw_*`` occupancy / not-empty /
forward / retry counters under the scope ``cxlsw.<switch>``, so
PathFinder's Clos-stage model absorbs switches as middle stages and
:class:`~repro.core.analyzer.PFAnalyzer` can attribute stalls to
fabric-port contention vs device-side queues.

Use :func:`attach_fabric` to retrofit a built machine, or set
``MachineConfig(fabric=...)`` and let :class:`~repro.sim.machine.Machine`
wire it during assembly (the declarative spelling campaigns serialise).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..pmu.registry import CounterRegistry
from .cxl_device import CXLDevice
from .engine import Engine
from .queues import MonitoredQueue, Server
from .request import MemRequest, Path

#: Extra bytes a PBR (port-based routing) flit carries per switch hop: the
#: 256B-mode header grows a destination-port id for multi-tier routing.
PBR_HOP_OVERHEAD_BYTES = 4.0


# -- declarative spec --------------------------------------------------------


@dataclass(frozen=True)
class SwitchSpec:
    """One fabric switch: per-output-port bandwidth, latency and depth."""

    name: str
    bytes_per_cycle: float = 32.0
    forward_latency: float = 60.0
    queue_depth: int = 128

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("switch needs a name")
        if self.bytes_per_cycle <= 0:
            raise ValueError(f"{self.name}: non-positive port bandwidth")
        if self.forward_latency < 0:
            raise ValueError(f"{self.name}: negative forward latency")
        if self.queue_depth <= 0:
            raise ValueError(f"{self.name}: non-positive queue depth")


@dataclass(frozen=True)
class HostSpec:
    """One fabric host.

    The primary host is the simulated machine; any other host with
    ``inject_ops > 0`` becomes a background injector that issues one read
    flit every ``inject_gap`` cycles round-robin over ``targets`` (default:
    every pooled device), modelling a neighbour server hammering the pool.
    """

    name: str
    inject_ops: int = 0
    inject_gap: float = 4.0
    inject_bytes: float = 68.0
    targets: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host needs a name")
        if self.inject_ops < 0:
            raise ValueError(f"{self.name}: negative inject_ops")
        if self.inject_gap <= 0:
            raise ValueError(f"{self.name}: non-positive inject_gap")
        if self.inject_bytes <= 0:
            raise ValueError(f"{self.name}: non-positive inject_bytes")
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class FabricSpec:
    """Declarative fabric graph; compiles to a routed :class:`Fabric`.

    ``devices`` map positionally onto the machine's CXL endpoints (first
    name = first CXL NUMA node).  Plain strings are accepted for ``hosts``
    and ``switches`` and normalised to default specs.
    """

    hosts: Tuple[HostSpec, ...]
    switches: Tuple[SwitchSpec, ...]
    devices: Tuple[str, ...]
    links: Tuple[Tuple[str, str], ...]
    flit_mode: str = "68B"
    primary_host: str = ""

    def __post_init__(self) -> None:
        hosts = tuple(
            h if isinstance(h, HostSpec) else HostSpec(str(h))
            for h in self.hosts
        )
        switches = tuple(
            s if isinstance(s, SwitchSpec) else SwitchSpec(str(s))
            for s in self.switches
        )
        devices = tuple(str(d) for d in self.devices)
        links = tuple(tuple(str(end) for end in link) for link in self.links)
        object.__setattr__(self, "hosts", hosts)
        object.__setattr__(self, "switches", switches)
        object.__setattr__(self, "devices", devices)
        object.__setattr__(self, "links", links)
        if not hosts:
            raise ValueError("fabric needs at least one host")
        if not switches:
            raise ValueError("fabric needs at least one switch")
        if not devices:
            raise ValueError("fabric needs at least one device")
        # Function-local: topology imports this module at load time.
        from .topology import FLIT_MODES

        if self.flit_mode not in FLIT_MODES:
            raise ValueError(
                f"unknown flit mode {self.flit_mode!r};"
                f" choose from {sorted(FLIT_MODES)}"
            )
        names: List[str] = (
            [h.name for h in hosts] + [s.name for s in switches] + list(devices)
        )
        if len(set(names)) != len(names):
            raise ValueError(f"fabric node names must be unique: {sorted(names)}")
        switch_names = {s.name for s in switches}
        known = set(names)
        for link in links:
            if len(link) != 2 or link[0] == link[1]:
                raise ValueError(f"malformed link {link!r}")
            unknown = set(link) - known
            if unknown:
                raise ValueError(f"link {link!r} references unknown node(s) "
                                 f"{sorted(unknown)}")
            if not switch_names & set(link):
                raise ValueError(
                    f"link {link!r} bypasses the fabric: every link must "
                    "touch a switch"
                )
        if self.primary_host and self.primary_host not in {
            h.name for h in hosts
        }:
            raise ValueError(
                f"primary host {self.primary_host!r} is not a fabric host"
            )
        for host in hosts:
            for target in host.targets:
                if target not in devices:
                    raise ValueError(
                        f"host {host.name}: inject target {target!r} is not "
                        "a fabric device"
                    )
        # Every (host, device) pair must be routable: pooling means every
        # host can reach every device through switches.
        adjacency = self._adjacency()
        for host in hosts:
            reachable = _bfs_reachable(adjacency, host.name, switch_names)
            missing = set(devices) - reachable
            if missing:
                raise ValueError(
                    f"host {host.name} cannot reach device(s) "
                    f"{sorted(missing)}; add links"
                )

    # -- graph helpers ----------------------------------------------------

    def _adjacency(self) -> Dict[str, List[str]]:
        adjacency: Dict[str, List[str]] = {}
        for a, b in self.links:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        for nbrs in adjacency.values():
            nbrs.sort()
        return adjacency

    @property
    def host_names(self) -> Tuple[str, ...]:
        return tuple(h.name for h in self.hosts)

    @property
    def switch_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.switches)

    def primary(self, machine_host_id: Optional[str] = None) -> str:
        """The host the simulated machine plays in this fabric."""
        if self.primary_host:
            return self.primary_host
        if machine_host_id and machine_host_id in self.host_names:
            return machine_host_id
        return self.hosts[0].name

    def hops(self, src: str, dst: str) -> int:
        """Number of switch traversals between two endpoints."""
        return len(_shortest_path(self._adjacency(), src, dst,
                                  set(self.switch_names))) - 2

    # -- serde ------------------------------------------------------------

    def to_document(self) -> Dict:
        return {
            "hosts": [dataclasses.asdict(h) for h in self.hosts],
            "switches": [dataclasses.asdict(s) for s in self.switches],
            "devices": list(self.devices),
            "links": [list(link) for link in self.links],
            "flit_mode": self.flit_mode,
            "primary_host": self.primary_host,
        }

    @classmethod
    def from_document(cls, document: Dict) -> "FabricSpec":
        hosts = tuple(
            HostSpec(**{**h, "targets": tuple(h.get("targets", ()))})
            if isinstance(h, dict) else HostSpec(str(h))
            for h in document["hosts"]
        )
        switches = tuple(
            SwitchSpec(**s) if isinstance(s, dict) else SwitchSpec(str(s))
            for s in document["switches"]
        )
        return cls(
            hosts=hosts,
            switches=switches,
            devices=tuple(document["devices"]),
            links=tuple(tuple(link) for link in document["links"]),
            flit_mode=document.get("flit_mode", "68B"),
            primary_host=document.get("primary_host", ""),
        )

    def compile(self, engine: Engine, pmu: CounterRegistry) -> "Fabric":
        return Fabric(engine, pmu, self)


def _bfs_reachable(adjacency: Dict[str, List[str]], start: str,
                   via: set) -> set:
    """Nodes reachable from ``start`` where interior hops are in ``via``."""
    seen = {start}
    frontier: Deque[str] = deque([start])
    while frontier:
        node = frontier.popleft()
        if node != start and node not in via:
            continue  # endpoints terminate a path; only switches forward
        for nbr in adjacency.get(node, ()):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen


def _shortest_path(adjacency: Dict[str, List[str]], src: str, dst: str,
                   via: set) -> Tuple[str, ...]:
    """Deterministic shortest ``src -> dst`` path through ``via`` nodes."""
    parent: Dict[str, str] = {src: src}
    frontier: Deque[str] = deque([src])
    while frontier:
        node = frontier.popleft()
        if node == dst:
            break
        if node != src and node not in via:
            continue
        for nbr in adjacency.get(node, ()):
            if nbr not in parent:
                parent[nbr] = node
                frontier.append(nbr)
    if dst not in parent:
        raise ValueError(f"no fabric route {src} -> {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


# -- compiled fabric ---------------------------------------------------------


class SwitchPort:
    """One output-serialised direction of the crossbar."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        bytes_per_cycle: float,
        forward_latency: float,
        queue_depth: int = 128,
    ) -> None:
        self.engine = engine
        self.forward_latency = forward_latency
        self.queue = MonitoredQueue(engine, queue_depth, name=name)
        self._server = Server(
            engine,
            self.queue,
            service_time=lambda item: item[0] / bytes_per_cycle,
            on_done=self._forward,
            name=name,
        )

    def _forward(self, item) -> None:
        _flit_bytes, deliver = item
        self.engine.after(self.forward_latency, deliver)

    def send(self, flit_bytes: float, deliver: Callable[[], None]) -> bool:
        return self._server.submit((flit_bytes, deliver))


class FabricSwitch:
    """One compiled switch: output-serialised ports plus credit pending
    lists, publishing per-port PMU meters under ``cxlsw.<name>``."""

    def __init__(
        self,
        engine: Engine,
        pmu: CounterRegistry,
        spec: SwitchSpec,
        neighbors: List[str],
    ) -> None:
        self.engine = engine
        self.pmu = pmu
        self.spec = spec
        self.scope = f"cxlsw.{spec.name}"
        self.ports: Dict[str, SwitchPort] = {}
        self._pending: Dict[str, Deque] = {}
        self._parked: Dict[str, bool] = {}
        self.forwarded: Dict[str, int] = {}
        self.retries: Dict[str, int] = {}
        for nbr in neighbors:
            self.ports[nbr] = SwitchPort(
                engine,
                f"{self.scope}.{nbr}",
                spec.bytes_per_cycle,
                spec.forward_latency,
                spec.queue_depth,
            )
            self._pending[nbr] = deque()
            self._parked[nbr] = False
            self.forwarded[nbr] = 0
            self.retries[nbr] = 0
        pmu.on_sync(self._sync)

    def forward(
        self, nbr: str, flit_bytes: float, deliver: Callable[[], None]
    ) -> None:
        """Queue one flit onto the output port toward ``nbr``.

        Head-of-line pending order is preserved across credit stalls, so
        per-(src, dst) delivery stays FIFO.
        """
        self._pending[nbr].append((flit_bytes, deliver))
        self._drain(nbr)

    def _drain(self, nbr: str) -> None:
        pending = self._pending[nbr]
        port = self.ports[nbr]
        while pending:
            flit_bytes, deliver = pending[0]
            if port.send(flit_bytes, deliver):
                pending.popleft()
                self.forwarded[nbr] += 1  # exactly once per flit
            else:
                # Output queue full: credits withheld.  Count the throttled
                # submission and park until the port frees a slot.
                self.retries[nbr] += 1
                if not self._parked[nbr]:
                    self._parked[nbr] = True
                    port.queue.space_waiter.wait(lambda n=nbr: self._rearm(n))
                return

    def _rearm(self, nbr: str) -> None:
        self._parked[nbr] = False
        self._drain(nbr)

    @property
    def total_forwarded(self) -> int:
        return sum(self.forwarded.values())

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def _sync(self, now: float) -> None:
        for nbr, port in self.ports.items():
            port.queue.stats.sync(now)
            self.pmu.set(
                self.scope,
                f"unc_cxlsw_occupancy.{nbr}",
                port.queue.stats.occupancy_integral,
            )
            self.pmu.set(
                self.scope,
                f"unc_cxlsw_cycles_ne.{nbr}",
                port.queue.stats.cycles_not_empty,
            )
            self.pmu.set(
                self.scope, f"unc_cxlsw_fwd.{nbr}", float(self.forwarded[nbr])
            )
            self.pmu.set(
                self.scope, f"unc_cxlsw_retry.{nbr}", float(self.retries[nbr])
            )


class Fabric:
    """A compiled, routed fabric: switches + routes + background hosts."""

    def __init__(self, engine: Engine, pmu: CounterRegistry,
                 spec: FabricSpec) -> None:
        self.engine = engine
        self.pmu = pmu
        self.spec = spec
        adjacency = spec._adjacency()
        switch_names = set(spec.switch_names)
        self.switches: Dict[str, FabricSwitch] = {
            s.name: FabricSwitch(engine, pmu, s,
                                 adjacency.get(s.name, []))
            for s in spec.switches
        }
        self._routes: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        for host in spec.host_names:
            for device in spec.devices:
                path = _shortest_path(adjacency, host, device, switch_names)
                self._routes[(host, device)] = path
                self._routes[(device, host)] = tuple(reversed(path))
        self._hop_overhead = (
            PBR_HOP_OVERHEAD_BYTES if spec.flit_mode == "PBR" else 0.0
        )
        self.delivered: Dict[Tuple[str, str], int] = {}
        self.injectors: List[_HostInjector] = []
        pmu.on_sync(self._sync)

    def route(self, src: str, dst: str) -> Tuple[str, ...]:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise ValueError(f"no fabric route {src} -> {dst}") from None

    def send(
        self, src: str, dst: str, flit_bytes: float,
        deliver: Callable[[], None],
    ) -> None:
        """Forward one flit ``src -> dst`` across every switch on the route;
        ``deliver`` fires when it exits the last switch port."""
        path = self.route(src, dst)
        self._arrive(path, 1, flit_bytes, deliver)

    def _arrive(
        self, path: Tuple[str, ...], index: int, flit_bytes: float,
        deliver: Callable[[], None],
    ) -> None:
        if index == len(path) - 1:
            key = (path[0], path[-1])
            self.delivered[key] = self.delivered.get(key, 0) + 1
            deliver()
            return
        self.switches[path[index]].forward(
            path[index + 1],
            flit_bytes + self._hop_overhead,
            lambda: self._arrive(path, index + 1, flit_bytes, deliver),
        )

    @property
    def total_forwarded(self) -> int:
        return sum(s.total_forwarded for s in self.switches.values())

    @property
    def total_retries(self) -> int:
        return sum(s.total_retries for s in self.switches.values())

    def _sync(self, now: float) -> None:
        for injector in self.injectors:
            self.pmu.set(
                "fabric", f"host_injected.{injector.host.name}",
                float(injector.sent),
            )
            self.pmu.set(
                "fabric", f"host_completed.{injector.host.name}",
                float(injector.completed),
            )


class _FabricEndpoint:
    """Device-side shim routing one root port's traffic across the fabric."""

    def __init__(
        self,
        fabric: Fabric,
        device: CXLDevice,
        host_key: str,
        device_key: str,
        port,
    ) -> None:
        self.fabric = fabric
        self.device = device
        self.host_key = host_key
        self.device_key = device_key
        self.port = port

    def receive(
        self, request: MemRequest, respond: Callable[[MemRequest], None]
    ) -> None:
        flit_down = (
            self.port.data_flit_bytes if request.is_store
            else self.port.header_flit_bytes
        )

        def back_through_fabric(req: MemRequest) -> None:
            flit_up = (
                self.port.header_flit_bytes if req.is_store
                else self.port.data_flit_bytes
            )
            self.fabric.send(
                self.device_key, self.host_key, flit_up,
                lambda: respond(req),
            )

        self.fabric.send(
            self.host_key,
            self.device_key,
            flit_down,
            lambda: self.device.receive(request, back_through_fabric),
        )


class _HostInjector:
    """Open-loop background traffic from a non-primary fabric host.

    Issues one read flit every ``inject_gap`` cycles, round-robin over the
    host's target devices; responses travel back up the fabric.  The
    injected requests land in the *shared* device queues, so pooling
    contention is visible in ``unc_cxlcm_*`` as well as ``unc_cxlsw_*``.
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        host: HostSpec,
        devices: Dict[str, CXLDevice],
        bases: Dict[str, int],
    ) -> None:
        self.engine = engine
        self.fabric = fabric
        self.host = host
        self.targets = tuple(host.targets) or tuple(sorted(devices))
        self.devices = devices
        self.bases = bases
        self.sent = 0
        self.completed = 0
        # Offset the first injection so it never races the profiled
        # workload's warm-up event at cycle zero.
        engine.after(1.0, self._tick)

    def _tick(self) -> None:
        if self.sent >= self.host.inject_ops:
            return
        name = self.targets[self.sent % len(self.targets)]
        device = self.devices[name]
        request = MemRequest(
            self.bases[name] + (self.sent * 64) % (1 << 22),
            Path.DRD,
            core_id=-1,
            issue_time=self.engine.now,
        )
        self.sent += 1
        self.fabric.send(
            self.host.name,
            name,
            self.host.inject_bytes,
            lambda d=device, r=request, n=name: d.receive(
                r, lambda req: self._respond(n, req)
            ),
        )
        self.engine.after(self.host.inject_gap, self._tick)

    def _respond(self, device_name: str, request: MemRequest) -> None:
        self.fabric.send(
            device_name, self.host.name, self.host.inject_bytes,
            self._complete,
        )

    def _complete(self) -> None:
        self.completed += 1


# -- machine integration -----------------------------------------------------


def attach_fabric(machine, spec: FabricSpec) -> Fabric:
    """Interpose a compiled fabric between a machine's root ports and its
    CXL devices, and boot the background injector hosts.

    Raises if a fabric is already attached (the shims must wrap the raw
    device exactly once).
    """
    if getattr(machine, "fabric", None) is not None:
        raise RuntimeError("machine already has a fabric attached")
    node_ids = sorted(machine.m2pcie)
    if len(spec.devices) != len(node_ids):
        raise ValueError(
            f"fabric names {len(spec.devices)} device(s) but the machine "
            f"has {len(node_ids)} CXL endpoint(s)"
        )
    fabric = Fabric(machine.engine, machine.pmu, spec)
    primary = spec.primary(getattr(machine, "host_id", None))
    devices_by_name: Dict[str, CXLDevice] = {}
    bases: Dict[str, int] = {}
    cxl_nodes = {n.node_id: n for n in machine.address_space.cxl_nodes}
    for node_id, device_name in zip(node_ids, spec.devices):
        port = machine.m2pcie[node_id]
        port.device = _FabricEndpoint(
            fabric,
            machine.cxl_devices[node_id],
            host_key=primary,
            device_key=device_name,
            port=port,
        )
        devices_by_name[device_name] = machine.cxl_devices[node_id]
        bases[device_name] = cxl_nodes[node_id].base
    for host in spec.hosts:
        if host.name != primary and host.inject_ops > 0:
            fabric.injectors.append(
                _HostInjector(machine.engine, fabric, host,
                              devices_by_name, bases)
            )
    machine.fabric = fabric
    return fabric


def apply_fabric(config, fabric):
    """Fold a fabric request (preset name or :class:`FabricSpec`) into a
    :class:`~repro.sim.topology.MachineConfig`, growing the device count to
    match the fabric's pool.  ``None`` passes the config through."""
    if fabric is None:
        return config
    if isinstance(fabric, str):
        spec = preset_fabric(fabric, num_devices=config.num_cxl_devices)
    elif isinstance(fabric, FabricSpec):
        spec = fabric
    else:
        raise ValueError(
            f"fabric must be None, a preset name from {FABRIC_PRESETS} or a "
            f"FabricSpec, got {fabric!r}"
        )
    return dataclasses.replace(
        config, fabric=spec, num_cxl_devices=len(spec.devices)
    )


# -- presets -----------------------------------------------------------------

FABRIC_PRESETS: Tuple[str, ...] = ("pooled", "undersized", "two-tier")


def preset_fabric(
    name: str, num_devices: int = 1, inject_ops: int = 60_000
) -> FabricSpec:
    """Named 2-host topologies for CLI flags and campaign grids.

    * ``pooled`` - 2 hosts, 1 switch, pooled devices; the neighbour host
      injects moderate background load.  Healthy fabric: stalls stay on
      the device side.
    * ``undersized`` - same graph, but the switch ports are narrow and
      shallow and the neighbour hammers the pool: congestion builds at
      the switch ports (the fabric-congested diagnosis class).
    * ``two-tier`` - 2 hosts behind a leaf switch, devices behind a spine,
      PBR flits: exercises multi-hop forwarding and routing overhead.
    """
    devices = tuple(f"dev{i}" for i in range(num_devices))
    if name == "pooled":
        hosts = (
            HostSpec("host0"),
            HostSpec("host1", inject_ops=inject_ops, inject_gap=12.0),
        )
        switches = (SwitchSpec("sw0"),)
        links = tuple(
            [("host0", "sw0"), ("host1", "sw0")]
            + [("sw0", d) for d in devices]
        )
    elif name == "undersized":
        hosts = (
            HostSpec("host0"),
            HostSpec("host1", inject_ops=inject_ops, inject_gap=3.0),
        )
        switches = (
            SwitchSpec("sw0", bytes_per_cycle=2.0, queue_depth=16),
        )
        links = tuple(
            [("host0", "sw0"), ("host1", "sw0")]
            + [("sw0", d) for d in devices]
        )
    elif name == "two-tier":
        hosts = (
            HostSpec("host0"),
            HostSpec("host1", inject_ops=inject_ops, inject_gap=12.0),
        )
        switches = (SwitchSpec("sw0"), SwitchSpec("sw1"))
        links = tuple(
            [("host0", "sw0"), ("host1", "sw0"), ("sw0", "sw1")]
            + [("sw1", d) for d in devices]
        )
        return FabricSpec(hosts=hosts, switches=switches, devices=devices,
                          links=links, flit_mode="PBR")
    else:
        raise KeyError(
            f"unknown fabric preset {name!r}; choose from {FABRIC_PRESETS}"
        )
    return FabricSpec(hosts=hosts, switches=switches, devices=devices,
                      links=links)
