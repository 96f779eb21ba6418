"""Caching and Home Agent (CHA): LLC slices, snoop filter, TOR.

Each CHA couples one LLC slice with a snoop-filter directory partition and
a Table of Requests (TOR) - the hardware queue whose insert/occupancy
counters are PFBuilder's main uncore signal (Table 5).  Requests arriving
from cores are TOR-tracked from insertion until their data returns, and
classified by outcome exactly the way ``unc_cha_tor_inserts.ia_*`` does:
hit, miss, miss targeting local DDR, SNC-distant DDR, remote socket, or
CXL.  The same resolution also feeds the per-core ``ocr.*`` offcore
response counters (Table 2).
"""

from __future__ import annotations

import functools
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..pmu.registry import CounterRegistry
from .address import AddressSpace, NodeKind, NumaNode
from .cache import Cache, MESIF
from .coherence import Directory
from .engine import Engine
from .flexbus import M2PCIe
from .imc import IMC
from .mesh import Mesh
from .request import MemRequest, Path, ServeLocation

# TOR insert event per architectural path (Table 5's PFBuilder mapping).
TOR_EVENT_BY_PATH: Dict[Path, str] = {
    Path.DRD: "unc_cha_tor_inserts.ia_drd",
    Path.RFO: "unc_cha_tor_inserts.ia_rfo",
    Path.L1_HWPF: "unc_cha_tor_inserts.ia_drd_pref",
    Path.L2_HWPF_DRD: "unc_cha_tor_inserts.ia_drd_pref",
    Path.SWPF: "unc_cha_tor_inserts.ia_drd_pref",
    Path.L2_HWPF_RFO: "unc_cha_tor_inserts.ia_rfo_pref",
    Path.DWR: "unc_cha_tor_inserts.ia_wb",
}

OCR_EVENT_BY_PATH: Dict[Path, str] = {
    Path.DRD: "ocr.demand_data_rd",
    Path.RFO: "ocr.rfo",
    Path.L1_HWPF: "ocr.l1d_hw_pf",
    Path.L2_HWPF_DRD: "ocr.l2_hw_pf_drd",
    Path.SWPF: "ocr.demand_data_rd",  # SW PF merges into DRd (section 3.2)
    Path.L2_HWPF_RFO: "ocr.l2_hw_pf_rfo",
    Path.DWR: "ocr.modified_write",
}

# Serve-location -> ocr scenario suffix (Table 2's 9 scenarios).
OCR_SUFFIX: Dict[ServeLocation, str] = {
    ServeLocation.LOCAL_LLC: "l3_hit",
    ServeLocation.SNC_LLC: "snc_cache",
    ServeLocation.REMOTE_LLC: "remote_cache",
    ServeLocation.LOCAL_DRAM: "local_dram",
    ServeLocation.REMOTE_DRAM: "remote_dram",
    ServeLocation.CXL_DRAM: "cxl_dram",
}


def _build_tor_tables():
    """Precompute every TOR-insert / TOR-occupancy key tuple.

    A TOR insert's scenario expansion depends only on (path, outcome):
    ``None`` target means LLC hit, a :class:`NodeKind` names the miss
    target.  Expanding the cross-product once at import turns the per
    request key-building loops of ``_at_slice`` into two dict lookups.
    Key order matches the original per-request construction.
    """
    insert_keys: Dict[tuple, tuple] = {}
    occ_keys: Dict[tuple, tuple] = {}
    for path, event in TOR_EVENT_BY_PATH.items():
        sub_event = event.rsplit(".", 1)[1]  # e.g. "ia_drd"
        insert_keys[(path, None)] = (
            f"{event}.total", "unc_cha_tor_inserts.ia.total",
            f"{event}.hit", "unc_cha_tor_inserts.ia.hit",
        )
        occ_keys[(path, None)] = (
            f"{sub_event}.total", "ia.total", f"{sub_event}.hit",
        )
        for kind in NodeKind:
            keys = [
                f"{event}.total", "unc_cha_tor_inserts.ia.total",
                f"{event}.miss", "unc_cha_tor_inserts.ia.miss",
            ]
            if kind is NodeKind.LOCAL_DDR:
                keys += [f"{event}.miss_local", f"{event}.miss_local_ddr",
                         f"{event}.miss_ddr"]
            elif kind is NodeKind.REMOTE_DDR:
                keys += [f"{event}.miss_remote", f"{event}.miss_remote_ddr",
                         f"{event}.miss_ddr"]
            elif kind is NodeKind.CXL:
                keys += [f"{event}.miss_cxl",
                         "unc_cha_tor_inserts.ia.miss_cxl"]
            insert_keys[(path, kind)] = tuple(keys)
            occ = [f"{sub_event}.total", "ia.total", f"{sub_event}.miss"]
            if kind is NodeKind.CXL:
                occ += [f"{sub_event}.miss_cxl", "ia.miss_cxl"]
            occ_keys[(path, kind)] = tuple(occ)
    return insert_keys, occ_keys


def _build_ocr_table():
    """Precompute OCR scenario key tuples per (path, serve location)."""
    table: Dict[tuple, tuple] = {}
    for path, event in OCR_EVENT_BY_PATH.items():
        for location in ServeLocation:
            keys = [f"{event}.any_response"]
            suffix = OCR_SUFFIX.get(location)
            if suffix:
                keys.append(f"{event}.{suffix}")
            if location.is_memory or location is ServeLocation.REMOTE_LLC:
                keys.append(f"{event}.non_local_cache")
            table[(path, location)] = tuple(keys)
    return table


_TOR_INSERT_KEYS, _TOR_OCC_KEYS = _build_tor_tables()
_OCR_KEYS = _build_ocr_table()

@functools.lru_cache(maxsize=None)
def _tor_insert_keys(scope: str) -> Dict[tuple, tuple]:
    """``_TOR_INSERT_KEYS`` as ``(scope, event)`` keys, once per scope."""
    return {
        outcome: tuple((scope, event) for event in events)
        for outcome, events in _TOR_INSERT_KEYS.items()
    }


#: Memory a miss is served from, by the kind of node that owns the line.
_MEMORY_LOCATION = {
    NodeKind.LOCAL_DDR: ServeLocation.LOCAL_DRAM,
    NodeKind.REMOTE_DDR: ServeLocation.REMOTE_DRAM,
    NodeKind.CXL: ServeLocation.CXL_DRAM,
}

_RFO_PATHS = (Path.RFO, Path.L2_HWPF_RFO)
# Enum member lookups are attribute calls on CPython 3.11; the hot
# paths use these module-level aliases instead.
_RFO = Path.RFO
_DWR = Path.DWR
_CXL = NodeKind.CXL
_REMOTE_DDR = NodeKind.REMOTE_DDR
_EXCLUSIVE = MESIF.EXCLUSIVE
_FORWARD = MESIF.FORWARD
_LOCAL_LLC = ServeLocation.LOCAL_LLC
_SNC_LLC = ServeLocation.SNC_LLC


class _CategoryOccupancy:
    """Time-integrated in-flight count per (event, scenario) category.

    Implements the ``unc_cha_tor_occupancy.*`` family: for each cycle,
    accumulate the number of valid TOR entries of that category.  State is
    flat: category keys are interned to slots of parallel lists, and a
    TOR entry carries the tuple of its categories' slots, so the
    per-request enter/exit loops touch no per-key dict entries.
    """

    __slots__ = ("_index", "_keys", "_depth", "_integral", "_last")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._keys: List[str] = []
        self._depth: List[int] = []
        self._integral: List[float] = []
        self._last: List[float] = []

    def slots(self, keys, now: float) -> Tuple[int, ...]:
        """The slots of ``keys``, interning new ones as of ``now``."""
        index = self._index
        out = []
        for key in keys:
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(self._keys)
                self._keys.append(key)
                self._depth.append(0)
                self._integral.append(0.0)
                self._last.append(now)
            out.append(idx)
        return tuple(out)

    def enter(self, slots: Tuple[int, ...], now: float) -> None:
        depth, integral, last = self._depth, self._integral, self._last
        for idx in slots:
            d = depth[idx]
            dt = now - last[idx]
            if dt:
                integral[idx] += d * dt
                last[idx] = now
            depth[idx] = d + 1

    def exit(self, slots: Tuple[int, ...], now: float) -> None:
        depth, integral, last = self._depth, self._integral, self._last
        for idx in slots:
            d = depth[idx]
            dt = now - last[idx]
            if dt:
                integral[idx] += d * dt
                last[idx] = now
            depth[idx] = d - 1

    def sync(self, now: float) -> Dict[str, float]:
        depth, integral, last = self._depth, self._integral, self._last
        for idx in range(len(self._keys)):
            dt = now - last[idx]
            if dt:
                integral[idx] += depth[idx] * dt
                last[idx] = now
        return dict(zip(self._keys, integral))


class CHASlice:
    """One LLC slice + its TOR."""

    def __init__(
        self,
        slice_id: int,
        cluster: int,
        llc: Cache,
        engine: Engine,
        tor_depth: int = 88,
    ) -> None:
        self.slice_id = slice_id
        self.cluster = cluster
        self.llc = llc
        self.tor_inflight = 0
        self.tor_depth = tor_depth
        self.engine = engine
        self.stamp_name = f"cha{slice_id}"


class CHA:
    """Socket-level CHA complex: slice array, directory, routing."""

    def __init__(
        self,
        engine: Engine,
        pmu: CounterRegistry,
        address_space: AddressSpace,
        mesh: Mesh,
        imc: IMC,
        m2pcie_by_node: Dict[int, M2PCIe],
        num_slices: int = 8,
        num_clusters: int = 2,
        llc_size_bytes: int = 60 * (1 << 20),
        llc_ways: int = 12,
        llc_policy: str = "lru",
        llc_hit_latency: float = 46.0,
        snoop_latency: float = 70.0,
        socket: int = 0,
        cores_per_cluster: int = 16,
    ) -> None:
        self.engine = engine
        self.pmu = pmu
        self.address_space = address_space
        self.mesh = mesh
        self.imc = imc
        self.m2pcie_by_node = m2pcie_by_node
        self.socket = socket
        self.num_clusters = max(1, num_clusters)
        self.cores_per_cluster = cores_per_cluster
        self.llc_hit_latency = llc_hit_latency
        self.snoop_latency = snoop_latency
        self.directory = Directory(socket)
        slice_size = llc_size_bytes // num_slices
        self.slices: List[CHASlice] = [
            CHASlice(
                s,
                cluster=s % self.num_clusters,
                llc=Cache(slice_size, llc_ways, name=f"llc{s}", policy=llc_policy),
                engine=engine,
            )
            for s in range(num_slices)
        ]
        self._occupancy = _CategoryOccupancy()
        # Flight recorder; None unless the profiling spec asked for tracing.
        self.recorder = None
        self.scope = f"cha{socket}"
        # Per-request key tables for this CHA's scope: TOR insert keys by
        # (path, outcome); occupancy slots and OCR keys by (core, path,
        # serve location), filled as first seen.
        self._tor_keys = _tor_insert_keys(self.scope)
        self._tor_slots: Dict[tuple, Tuple[int, ...]] = {}
        self._ocr_keys: Dict[tuple, tuple] = {}
        pmu.on_sync(self._sync)
        # Dirty LLC evictions become memory write-backs; the machine wires
        # this to the core-independent write-back issuer.
        self.writeback_sink: Optional[Callable[[int], None]] = None

    # -- helpers ----------------------------------------------------------

    def slice_for(self, address: int) -> CHASlice:
        return self.slices[(address // 64) % len(self.slices)]

    def cluster_of_core(self, core_id: int) -> int:
        return core_id // self.cores_per_cluster % self.num_clusters

    def _classify_hit(self, core_id: int, cha_slice: CHASlice) -> ServeLocation:
        if cha_slice.cluster == self.cluster_of_core(core_id):
            return _LOCAL_LLC
        return _SNC_LLC

    # -- counter emission ------------------------------------------------

    def _new_ocr_keys(self, key: tuple) -> tuple:
        """Expand and remember one (core, path, location)'s OCR keys."""
        core_id, path, location = key
        scope = f"core{core_id}"
        keys = self._ocr_keys[key] = tuple(
            (scope, event) for event in _OCR_KEYS[(path, location)]
        )
        return keys

    # -- main entry ---------------------------------------------------------

    def submit(
        self, request: MemRequest, on_response: Callable[[MemRequest], None]
    ) -> None:
        """An L2 miss arrives from a core (after the core->CHA mesh hop)."""
        cha_slice = self.slice_for(request.address)
        same_cluster = cha_slice.cluster == self.cluster_of_core(request.core_id)
        hop = self.mesh.core_to_cha_latency(same_cluster)
        self.mesh.send(hop, partial(self._at_slice, request, cha_slice, on_response))

    def _at_slice(
        self,
        request: MemRequest,
        cha_slice: CHASlice,
        on_response: Callable[[MemRequest], None],
    ) -> None:
        now = self.engine.now
        request.hops.append((cha_slice.stamp_name, now))
        if self.recorder is not None:
            self.recorder.hop(request, "LLC", "enq")
        node = self.address_space.node_of(request.address)
        request.dest_node = node.node_id
        line = cha_slice.llc.lookup(request.address)
        # TOR bookkeeping: insert counters + occupancy from now to response.
        # (path, None) keys the hit expansion, (path, kind) the miss one.
        table_key = (request.path, None if line is not None else node.kind)
        self.pmu.add_many(self._tor_keys[table_key])
        slots = self._tor_slots.get(table_key)
        if slots is None:
            slots = self._tor_slots[table_key] = self._occupancy.slots(
                _TOR_OCC_KEYS[table_key], now
            )
        self._occupancy.enter(slots, now)
        cha_slice.tor_inflight += 1
        respond = partial(self._respond, slots, cha_slice, on_response)

        if line is not None:
            location = self._classify_hit(request.core_id, cha_slice)
            if request.path is _RFO or (
                request.path is _DWR and request.is_store
            ):
                # Ownership transfer: invalidate other sharers.
                self.directory.read_for_ownership(request.line, request.core_id)
                line.state = _EXCLUSIVE
            self.engine.after(self.llc_hit_latency, partial(respond, request, location))
            return
        request.missed_llc = True
        if request.on_llc_miss is not None:
            request.on_llc_miss()
        self._resolve_miss(request, cha_slice, node, respond)

    def _respond(
        self,
        slots: Tuple[int, ...],
        cha_slice: CHASlice,
        on_response: Callable[[MemRequest], None],
        req: MemRequest,
        location: ServeLocation,
    ) -> None:
        """The request's data is back at its slice: free the TOR entry."""
        end = self.engine.now
        self._occupancy.exit(slots, end)
        cha_slice.tor_inflight -= 1
        req.serve_location = location
        req.completion_time = end
        if self.recorder is not None:
            self.recorder.hop(req, "LLC", "deq")
            self.recorder.complete(req)
        key = (req.core_id, req.path, location)
        self.pmu.add_many(self._ocr_keys.get(key) or self._new_ocr_keys(key))
        on_response(req)

    def llc_lookup(self, address: int, cha_slice: Optional[CHASlice] = None):
        if cha_slice is None:
            cha_slice = self.slice_for(address)
        return cha_slice.llc.lookup(address)

    # -- miss resolution ------------------------------------------------------

    def _resolve_miss(
        self,
        request: MemRequest,
        cha_slice: CHASlice,
        node: NumaNode,
        respond: Callable[[MemRequest, ServeLocation], None],
    ) -> None:
        # 1. Snoop filter: can another core's private cache forward the line?
        if request.path in _RFO_PATHS:
            snoop = self.directory.read_for_ownership(request.line, request.core_id)
        else:
            snoop = self.directory.read(request.line, request.core_id)
        if snoop.hit and not request.is_store:
            # Table 2's serve classes: a same-cluster core forward counts
            # under the l3_hit scenario ("snooped from another core's
            # caches on the same socket"), a cross-cluster forward under
            # snc_cache; cross-socket forwards would be remote_cache.
            forwarder_cluster = self.cluster_of_core(snoop.served_by_core)
            requester_cluster = self.cluster_of_core(request.core_id)
            if forwarder_cluster == requester_cluster:
                location = _LOCAL_LLC
                delay = self.snoop_latency
            else:
                location = _SNC_LLC
                delay = self.snoop_latency + self.mesh.snc_penalty
            if snoop.had_modified:
                self.pmu.add(self.scope, "unc_cha_snoop.hitm")
            else:
                self.pmu.add(self.scope, "unc_cha_snoop.hit")
            self.engine.after(
                delay,
                partial(self._fill_and_respond, cha_slice, location, respond,
                        request),
            )
            return
        # 2. Route to the owning memory (the node _at_slice looked up).
        on_done = partial(self._fill_and_respond, cha_slice,
                          _MEMORY_LOCATION[node.kind], respond)
        self._to_memory(request, node, on_done)

    def _to_memory(
        self,
        request: MemRequest,
        node: NumaNode,
        on_done: Callable[[MemRequest], None],
    ) -> None:
        """Cross the mesh to the IMC or to the node's M2PCIe port."""
        mesh = self.mesh
        if node.kind is _CXL:
            mesh.send(
                mesh.cha_to_flexbus_latency(),
                partial(self._to_flexbus, self.m2pcie_by_node[node.node_id],
                        request, on_done),
            )
        else:
            hop = mesh.cha_to_memory_latency(node.kind is _REMOTE_DDR)
            mesh.send(hop, partial(self._to_imc, request, on_done))

    def _to_flexbus(
        self,
        m2pcie: M2PCIe,
        request: MemRequest,
        on_done: Callable[[MemRequest], None],
    ) -> None:
        if not m2pcie.submit(request, on_done):
            m2pcie.wait_for_slot(
                partial(self._to_flexbus, m2pcie, request, on_done)
            )

    def _to_imc(
        self, request: MemRequest, on_done: Callable[[MemRequest], None]
    ) -> None:
        if not self.imc.submit(request, on_done):
            self.imc.wait_for_slot(request, partial(self._to_imc, request, on_done))

    def _fill_and_respond(
        self,
        cha_slice: CHASlice,
        location: ServeLocation,
        respond: Callable[[MemRequest, ServeLocation], None],
        request: MemRequest,
    ) -> None:
        """Data (or completion) arrived: install in LLC, return to core."""
        if request.path is not _DWR:
            state = _EXCLUSIVE if request.path in _RFO_PATHS else _FORWARD
            evicted = cha_slice.llc.fill(request.address, state)
            if evicted is not None and evicted.dirty and self.writeback_sink:
                self.writeback_sink(evicted.address)
        respond(request, location)

    # -- write-back path (DWr) -------------------------------------------------

    def writeback(self, address: int, core_id: int, on_done=None) -> None:
        """A dirty line leaves a core's private caches (DWr path).

        Dirty data is absorbed by the LLC slice; if the line's home is CXL
        or the LLC copy gets evicted later, the data moves to memory as an
        RwD/WPQ store.  Write-backs to CXL-homed lines stream through to
        the device (host LLC is not a persistence point for device memory
        in this model), producing the CXL.mem store transactions of path #2.
        """
        request = MemRequest(
            address=address,
            path=_DWR,
            core_id=core_id,
            issue_time=self.engine.now,
            is_store=True,
        )
        cha_slice = self.slice_for(address)
        node = self.address_space.node_of(address)
        event = TOR_EVENT_BY_PATH[_DWR]
        self.pmu.add(self.scope, f"{event}.total")
        self.directory.drop(request.line, core_id)
        if self.recorder is not None:
            self.recorder.maybe_trace(request)

        def done(req: MemRequest) -> None:
            req.complete(_MEMORY_LOCATION[node.kind], self.engine.now)
            if self.recorder is not None:
                self.recorder.complete(req)
            key = (req.core_id, req.path, req.serve_location)
            self.pmu.add_many(self._ocr_keys.get(key) or self._new_ocr_keys(key))
            if on_done is not None:
                on_done(req)

        if node.kind is _CXL:
            self.pmu.add(self.scope, f"{event}.m_to_i")
        else:
            self.pmu.add(self.scope, f"{event}.m_to_e")
            cha_slice.llc.fill(address, state=MESIF.MODIFIED, dirty=True)
        self._to_memory(request, node, done)

    # -- PMU sync ---------------------------------------------------------

    def _sync(self, now: float) -> None:
        for key, integral in self._occupancy.sync(now).items():
            self.pmu.set(self.scope, f"unc_cha_tor_occupancy.{key}", integral)
        for transition, count in self.directory.transitions.items():
            self.pmu.set(self.scope, f"unc_cha_state.{transition}", float(count))
        hits = sum(s.llc.hits for s in self.slices)
        misses = sum(s.llc.misses for s in self.slices)
        self.pmu.set(self.scope, "llc_lookup.hits", float(hits))
        self.pmu.set(self.scope, "llc_lookup.misses", float(misses))
