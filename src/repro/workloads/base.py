"""Workload abstraction.

A workload is a deterministic generator of :class:`~repro.sim.MemOp`
items over a virtual region.  It corresponds to one pinned application
thread in the paper's profiling specification (Figure 5-a): PathFinder
never sees the generator, only the PMU activity it induces.

Workloads address *virtual* bytes starting at ``vpn_base * PAGE_SIZE``;
:meth:`install` backs the region on a NUMA node (local DDR or the CXL
node), which is the simulator's ``numactl --membind``.  Interleaved
placement (a local:CXL ratio, used by the TPP case study) is supported
via ``install_interleaved``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional

import numpy as np

from ..sim.address import PAGE_SIZE
from ..sim.machine import Machine
from ..sim.request import MemOp

# Virtual regions for distinct workload instances are spaced far apart so
# two co-located applications never share pages by accident.
_REGION_STRIDE_PAGES = 1 << 22
_region_counter = itertools.count(1)

#: Ops per chunk yielded by :meth:`Workload.ops_chunks`.
CHUNK_OPS = 4096


class Workload:
    """Base class: a named, seeded, bounded stream of memory operations."""

    def __init__(
        self,
        name: str,
        working_set_bytes: int,
        num_ops: int,
        seed: int = 1,
        vpn_base: Optional[int] = None,
    ) -> None:
        if working_set_bytes <= 0:
            raise ValueError(f"{name}: working set must be positive")
        if num_ops <= 0:
            raise ValueError(f"{name}: num_ops must be positive")
        self.name = name
        self.working_set_bytes = working_set_bytes
        self.num_ops = num_ops
        self.seed = seed
        self.vpn_base = (
            vpn_base
            if vpn_base is not None
            else next(_region_counter) * _REGION_STRIDE_PAGES
        )
        self.rng = np.random.default_rng(seed)

    # -- placement -------------------------------------------------------

    @property
    def base_address(self) -> int:
        return self.vpn_base * PAGE_SIZE

    @property
    def num_pages(self) -> int:
        return (self.working_set_bytes + PAGE_SIZE - 1) // PAGE_SIZE

    def install(self, machine: Machine, node_id: int) -> "Workload":
        """Back the whole working set on one NUMA node."""
        machine.address_space.alloc_pages(node_id, self.num_pages, self.vpn_base)
        return self

    def install_interleaved(
        self, machine: Machine, local_node: int, cxl_node: int, local_ratio: float
    ) -> "Workload":
        """Back pages round-robin with ``local_ratio`` fraction on local DDR.

        A 4:1 local/CXL split (the paper's TPP YCSB-C configuration) is
        ``local_ratio=0.8``.
        """
        if not 0.0 <= local_ratio <= 1.0:
            raise ValueError("local_ratio must be in [0, 1]")
        period = 10
        local_slots = round(local_ratio * period)
        for i in range(self.num_pages):
            node = local_node if (i % period) < local_slots else cxl_node
            machine.address_space.alloc_pages(node, 1, self.vpn_base + i)
        return self

    def install_striped(self, machine: Machine, node_ids) -> "Workload":
        """Back pages round-robin across several nodes (numactl
        --interleave over a CXL memory pool)."""
        nodes = list(node_ids)
        if not nodes:
            raise ValueError("need at least one node to stripe across")
        for i in range(self.num_pages):
            machine.address_space.alloc_pages(
                nodes[i % len(nodes)], 1, self.vpn_base + i
            )
        return self

    # -- op stream ---------------------------------------------------------

    def ops(self) -> Iterator[MemOp]:
        """Yield the operation stream.

        Subclasses implement this, or derive from :class:`ChunkedWorkload`
        and implement :meth:`ops_chunks` instead.
        """
        raise NotImplementedError

    def ops_chunks(self) -> Iterator[List[MemOp]]:
        """Yield the same stream as :meth:`ops`, in lists of ops.

        Consumers iterating a workload pull from these chunks, so the
        per-op cost is a C-level list-iterator step rather than a
        generator resume.  The default implementation slices :meth:`ops`;
        generators with precomputable address vectors derive from
        :class:`ChunkedWorkload` and build each chunk in one pass.
        """
        ops = self.ops()
        while True:
            chunk = list(itertools.islice(ops, CHUNK_OPS))
            if not chunk:
                return
            yield chunk

    def __iter__(self) -> Iterator[MemOp]:
        return itertools.chain.from_iterable(self.ops_chunks())

    def _addr(self, offset: int) -> int:
        """Turn a byte offset within the working set into a virtual address."""
        return self.base_address + (offset % self.working_set_bytes)

    def reseed(self) -> None:
        """Reset the RNG so the stream replays identically."""
        self.rng = np.random.default_rng(self.seed)


class ChunkedWorkload(Workload):
    """A workload whose stream is written once, as :meth:`ops_chunks`.

    :meth:`ops` flattens the chunks, so op-by-op consumers (composites,
    tests, trace recording) read exactly what the simulator runs.
    """

    def ops(self) -> Iterator[MemOp]:
        return itertools.chain.from_iterable(self.ops_chunks())

    def ops_chunks(self) -> Iterator[List[MemOp]]:
        raise NotImplementedError
