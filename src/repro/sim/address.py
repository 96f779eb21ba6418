"""Physical address space and NUMA routing.

Both testbed machines (section 5.1) expose CXL Type-3 memory as a CPU-less
NUMA node next to the socket-local DDR5 nodes.  We reproduce that layout:
a flat physical address space carved into contiguous NUMA regions, each
tagged with a :class:`NodeKind`, plus a page map so the tiering substrate
(TPP/Colloid, section 5.8) can migrate pages between nodes at runtime.

Address-to-DIMM routing is what makes a path "deterministic based on the
address mapping" (section 4.2): every architectural module consults this
map, never private state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

PAGE_SIZE = 4096


class NodeKind(enum.Enum):
    LOCAL_DDR = "local_ddr"     # socket-local DDR5 behind the IMC
    REMOTE_DDR = "remote_ddr"   # other socket's DDR5 (plain NUMA)
    CXL = "cxl"                 # CPU-less CXL Type-3 node behind FlexBus

    # Identity hash: the CHA's per-request key tables are keyed on it.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class NumaNode:
    """One NUMA region: ``[base, base + size)`` of physical memory."""

    node_id: int
    kind: NodeKind
    base: int
    size: int
    socket: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"node {self.node_id}: non-positive size")
        if self.base % PAGE_SIZE:
            raise ValueError(f"node {self.node_id}: base not page aligned")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class AddressSpace:
    """The machine's physical memory map plus a migratable page table.

    Applications address *virtual* pages; :meth:`translate` maps them to
    physical frames.  Initially the mapping is identity within whichever
    node a region was allocated from; tiering engines call
    :meth:`migrate_page` to remap a virtual page onto a different node,
    which is exactly the effect TPP's promotion/demotion has on the
    access stream.
    """

    def __init__(self, nodes: List[NumaNode]) -> None:
        if not nodes:
            raise ValueError("address space needs at least one node")
        self.nodes = sorted(nodes, key=lambda n: n.base)
        for prev, nxt in zip(self.nodes, self.nodes[1:]):
            if prev.end > nxt.base:
                raise ValueError(
                    f"nodes {prev.node_id} and {nxt.node_id} overlap"
                )
        self._by_id: Dict[int, NumaNode] = {n.node_id: n for n in self.nodes}
        # (base, end, node) per node: node_of runs once or twice per LLC
        # miss, so the bounds are plain ints, not properties.
        self._spans = tuple((n.base, n.end, n) for n in self.nodes)
        if len(self._by_id) != len(self.nodes):
            raise ValueError("duplicate node ids")
        # virtual page number -> physical frame base address
        self._page_map: Dict[int, int] = {}
        # simple bump allocators per node for page frames
        self._next_free: Dict[int, int] = {n.node_id: n.base for n in self.nodes}

    # -- lookup ---------------------------------------------------------

    def node_of(self, address: int) -> NumaNode:
        """Return the NUMA node owning physical ``address``."""
        for base, end, node in self._spans:
            if base <= address < end:
                return node
        raise KeyError(f"address {address:#x} outside all NUMA nodes")

    def node(self, node_id: int) -> NumaNode:
        return self._by_id[node_id]

    def is_cxl(self, address: int) -> bool:
        return self.node_of(address).kind is NodeKind.CXL

    @property
    def cxl_nodes(self) -> List[NumaNode]:
        return [n for n in self.nodes if n.kind is NodeKind.CXL]

    @property
    def local_nodes(self) -> List[NumaNode]:
        return [n for n in self.nodes if n.kind is NodeKind.LOCAL_DDR]

    # -- allocation / translation ----------------------------------------

    def alloc_pages(self, node_id: int, num_pages: int, vpn_base: int) -> None:
        """Back virtual pages ``[vpn_base, vpn_base+num_pages)`` on a node."""
        node = self._by_id[node_id]
        cursor = self._next_free[node_id]
        need = num_pages * PAGE_SIZE
        if cursor + need > node.end:
            raise MemoryError(
                f"node {node_id} exhausted: need {need} bytes, "
                f"{node.end - cursor} free"
            )
        self._page_map.update(zip(range(vpn_base, vpn_base + num_pages),
                                  range(cursor, cursor + need, PAGE_SIZE)))
        self._next_free[node_id] = cursor + need

    def translate(self, virtual_address: int) -> int:
        """Virtual address -> physical address (identity if unmapped)."""
        vpn, offset = divmod(virtual_address, PAGE_SIZE)
        frame = self._page_map.get(vpn)
        if frame is None:
            return virtual_address
        return frame + offset

    def page_node(self, vpn: int) -> Optional[NumaNode]:
        frame = self._page_map.get(vpn)
        if frame is None:
            return None
        return self.node_of(frame)

    def migrate_page(self, vpn: int, target_node_id: int) -> int:
        """Remap virtual page ``vpn`` onto ``target_node_id``.

        Returns the new frame base.  The old frame is not recycled (the
        tiering engines only migrate a bounded hot/cold set per epoch, so a
        bump allocator is sufficient and keeps the map append-only).
        """
        if vpn not in self._page_map:
            raise KeyError(f"virtual page {vpn} is not mapped")
        node = self._by_id[target_node_id]
        cursor = self._next_free[target_node_id]
        if cursor + PAGE_SIZE > node.end:
            raise MemoryError(f"node {target_node_id} exhausted")
        self._page_map[vpn] = cursor
        self._next_free[target_node_id] = cursor + PAGE_SIZE
        return cursor

    def mapped_pages(self) -> Dict[int, int]:
        """Snapshot of the virtual->physical page map (copy)."""
        return dict(self._page_map)

    def free_bytes(self, node_id: int) -> int:
        node = self._by_id[node_id]
        return node.end - self._next_free[node_id]


def build_address_space(
    local_gb: float = 256.0,
    cxl_gb: float = 16.0,
    remote_gb: float = 0.0,
) -> AddressSpace:
    """Convenience builder mirroring the SPR testbed's memory map."""
    gib = 1 << 30
    nodes = [NumaNode(0, NodeKind.LOCAL_DDR, 0, int(local_gb * gib), socket=0)]
    base = nodes[-1].end
    if remote_gb > 0:
        nodes.append(
            NumaNode(1, NodeKind.REMOTE_DDR, base, int(remote_gb * gib), socket=1)
        )
        base = nodes[-1].end
    nodes.append(
        NumaNode(len(nodes), NodeKind.CXL, base, int(cxl_gb * gib), socket=0)
    )
    return AddressSpace(nodes)
