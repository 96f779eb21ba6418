"""Synthetic access-pattern generators.

Each generator reproduces the locality class of one family of evaluation
workloads (Table 6): streaming (lbm/bwaves/MBW), random (GUPS),
pointer-chasing (mcf/omnetpp), zipf-skewed key-value (YCSB on Redis),
hot/cold sets (the TPP GUPS configuration), strided scientific kernels
(fotonik3d/roms) and phase-changing programs (gcc).  Batched numpy RNG
keeps generation cheap; streams are fully deterministic given a seed.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from ..sim.request import CACHELINE, MemOp
from .base import ChunkedWorkload, Workload

_BATCH = 4096

# MemOp is built positionally in the chunk builders below:
#   MemOp(address, is_store, gap, dependent, software_prefetch)


class SequentialStream(ChunkedWorkload):
    """Linear sweep over the working set - prefetcher heaven (MBW, lbm)."""

    def __init__(
        self,
        name: str = "stream",
        working_set_bytes: int = 1 << 22,
        num_ops: int = 20000,
        read_ratio: float = 1.0,
        gap: float = 2.0,
        stride: int = CACHELINE,
        accesses_per_line: int = 1,
        seed: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(name, working_set_bytes, num_ops, seed, **kwargs)
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if stride <= 0:
            raise ValueError("stride must be positive")
        if accesses_per_line < 1:
            raise ValueError("accesses_per_line must be >= 1")
        self.read_ratio = read_ratio
        self.gap = gap
        self.stride = stride
        # Dense code touches several words of each line (8B words in a
        # 64B line); values > 1 reproduce that intra-line L1 locality.
        self.accesses_per_line = accesses_per_line

    def ops_chunks(self) -> Iterator[List[MemOp]]:
        # Op k reads offset stride*(k//apl) + (k%apl)*8, so the whole
        # address vector of a chunk is one closed-form numpy expression.
        self.reseed()
        base = self.base_address
        ws = self.working_set_bytes
        apl = self.accesses_per_line
        stride = self.stride
        gap = self.gap
        emitted = 0
        while emitted < self.num_ops:
            n = min(_BATCH, self.num_ops - emitted)
            stores = (self.rng.random(n) >= self.read_ratio).tolist()
            k = np.arange(emitted, emitted + n, dtype=np.int64)
            offsets = (k // apl) * stride + (k % apl) * 8
            addrs = (base + (offsets % ws)).tolist()
            yield [MemOp(addrs[i], stores[i], gap) for i in range(n)]
            emitted += n


class StridedStream(SequentialStream):
    """Fixed large-stride sweep (matrix column walks: roms, fotonik3d)."""

    def __init__(self, name: str = "strided", stride: int = 4 * CACHELINE, **kwargs):
        super().__init__(name=name, stride=stride, **kwargs)


class RandomAccess(ChunkedWorkload):
    """Uniform random cacheline access - GUPS / pointer-free mcf phases."""

    def __init__(
        self,
        name: str = "random",
        working_set_bytes: int = 1 << 24,
        num_ops: int = 20000,
        read_ratio: float = 1.0,
        gap: float = 4.0,
        dependent: bool = False,
        seed: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(name, working_set_bytes, num_ops, seed, **kwargs)
        self.read_ratio = read_ratio
        self.gap = gap
        self.dependent = dependent

    def ops_chunks(self) -> Iterator[List[MemOp]]:
        self.reseed()
        base = self.base_address
        ws = self.working_set_bytes
        lines = max(1, ws // CACHELINE)
        gap = self.gap
        dep = self.dependent
        emitted = 0
        while emitted < self.num_ops:
            n = min(_BATCH, self.num_ops - emitted)
            offsets = self.rng.integers(0, lines, n) * CACHELINE
            stores = (self.rng.random(n) >= self.read_ratio).tolist()
            addrs = (base + (offsets % ws)).tolist()
            if dep:
                yield [
                    MemOp(addrs[i], stores[i], gap, not stores[i])
                    for i in range(n)
                ]
            else:
                yield [MemOp(addrs[i], stores[i], gap) for i in range(n)]
            emitted += n


class PointerChase(RandomAccess):
    """Serialised dependent loads (linked-list traversal: mcf, omnetpp)."""

    def __init__(self, name: str = "chase", **kwargs):
        kwargs.setdefault("read_ratio", 1.0)
        super().__init__(name=name, dependent=True, **kwargs)


class ZipfAccess(ChunkedWorkload):
    """Zipf-skewed accesses over cachelines (YCSB-C on Redis)."""

    def __init__(
        self,
        name: str = "zipf",
        working_set_bytes: int = 1 << 24,
        num_ops: int = 20000,
        theta: float = 0.99,
        read_ratio: float = 1.0,
        gap: float = 6.0,
        seed: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(name, working_set_bytes, num_ops, seed, **kwargs)
        if theta <= 0:
            raise ValueError("zipf theta must be positive")
        self.theta = theta
        self.read_ratio = read_ratio
        self.gap = gap

    def _zipf_lines(self, n: int, lines: int) -> np.ndarray:
        # Bounded zipf via inverse-CDF over a truncated harmonic series.
        ranks = np.arange(1, min(lines, 1 << 17) + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, self.theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        draws = self.rng.random(n)
        hot_ranks = np.searchsorted(cdf, draws)
        # Scatter the hot ranks across the working set deterministically so
        # hot lines are not physically adjacent (realistic key hashing).
        return (hot_ranks * 2654435761) % lines

    def ops_chunks(self) -> Iterator[List[MemOp]]:
        self.reseed()
        base = self.base_address
        ws = self.working_set_bytes
        lines = max(1, ws // CACHELINE)
        gap = self.gap
        emitted = 0
        while emitted < self.num_ops:
            n = min(_BATCH, self.num_ops - emitted)
            chosen = self._zipf_lines(n, lines)
            stores = (self.rng.random(n) >= self.read_ratio).tolist()
            addrs = (base + ((chosen * CACHELINE) % ws)).tolist()
            yield [MemOp(addrs[i], stores[i], gap) for i in range(n)]
            emitted += n


class HotColdAccess(ChunkedWorkload):
    """Hot-set/cold-set mix: the paper's TPP GUPS configuration.

    ``hot_fraction`` of the working set absorbs ``hot_probability`` of the
    accesses (24 GiB hot of 72 GiB total at 90% in section 5.8, scaled
    down here by the machine config).
    """

    def __init__(
        self,
        name: str = "hotcold",
        working_set_bytes: int = 3 << 22,
        num_ops: int = 20000,
        hot_fraction: float = 1.0 / 3.0,
        hot_probability: float = 0.9,
        read_ratio: float = 0.5,
        gap: float = 4.0,
        seed: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(name, working_set_bytes, num_ops, seed, **kwargs)
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self.read_ratio = read_ratio
        self.gap = gap

    def ops_chunks(self) -> Iterator[List[MemOp]]:
        self.reseed()
        base = self.base_address
        ws = self.working_set_bytes
        lines = max(1, ws // CACHELINE)
        hot_lines = max(1, int(lines * self.hot_fraction))
        gap = self.gap
        emitted = 0
        while emitted < self.num_ops:
            n = min(_BATCH, self.num_ops - emitted)
            hot = self.rng.random(n) < self.hot_probability
            hot_offsets = self.rng.integers(0, hot_lines, n)
            cold_offsets = self.rng.integers(hot_lines, max(lines, hot_lines + 1), n)
            stores = (self.rng.random(n) >= self.read_ratio).tolist()
            chosen = np.where(hot, hot_offsets, cold_offsets)
            addrs = (base + ((chosen * CACHELINE) % ws)).tolist()
            yield [MemOp(addrs[i], stores[i], gap) for i in range(n)]
            emitted += n


class SoftwarePrefetchStream(ChunkedWorkload):
    """Irregular traversal with explicit SW prefetch ahead of each load.

    Models the prefetch-annotated graph kernels (GAP BFS/SSSP) that
    exercise the SW PF -> DRd merge (section 2.2 path #4).
    """

    def __init__(
        self,
        name: str = "swpf",
        working_set_bytes: int = 1 << 24,
        num_ops: int = 20000,
        prefetch_distance_ops: int = 8,
        gap: float = 3.0,
        seed: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(name, working_set_bytes, num_ops, seed, **kwargs)
        self.prefetch_distance_ops = prefetch_distance_ops
        self.gap = gap

    def ops_chunks(self) -> Iterator[List[MemOp]]:
        self.reseed()
        base = self.base_address
        ws = self.working_set_bytes
        lines = max(1, ws // CACHELINE)
        num_ops = self.num_ops
        sequence = self.rng.integers(0, lines, num_ops)
        addrs = (base + ((sequence * CACHELINE) % ws)).tolist()
        gap = self.gap
        dist = self.prefetch_distance_ops
        chunk: List[MemOp] = []
        append = chunk.append
        for i in range(num_ops):
            ahead = i + dist
            if ahead < num_ops:
                append(MemOp(addrs[ahead], False, 0.0, False, True))
            append(MemOp(addrs[i], False, gap))
            if len(chunk) >= _BATCH:
                yield chunk
                chunk = []
                append = chunk.append
        if chunk:
            yield chunk


class PhasedWorkload(Workload):
    """Concatenation of phases with different patterns (gcc_s snapshots).

    ``phases`` is a list of fully-built workloads; their op streams run
    back-to-back over this workload's single shared region.
    """

    def __init__(self, name: str, phases: Sequence[Workload], **kwargs) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        total_ops = sum(p.num_ops for p in phases)
        ws = max(p.working_set_bytes for p in phases)
        super().__init__(name, ws, total_ops, **kwargs)
        self.phases = list(phases)
        for phase in self.phases:
            phase.vpn_base = self.vpn_base  # share one region

    def ops(self) -> Iterator[MemOp]:
        for phase in self.phases:
            yield from phase.ops()


class MBW(SequentialStream):
    """Memory-bandwidth microbenchmark: copy loop (read + write streams)."""

    def __init__(self, name: str = "mbw", rate_gap: float = 0.0, **kwargs):
        kwargs.setdefault("read_ratio", 0.5)
        kwargs.setdefault("gap", rate_gap)
        super().__init__(name=name, **kwargs)


class GUPS(RandomAccess):
    """Giga-updates-per-second: random read-modify-write."""

    def __init__(self, name: str = "gups", **kwargs):
        kwargs.setdefault("read_ratio", 0.5)
        super().__init__(name=name, **kwargs)


class InterleavedFlows(Workload):
    """Two mFlows from one core: ops from two workloads, interleaved.

    The interference cases (sections 5.4-5.5) co-locate a local mFlow and
    a CXL mFlow on the same core and sweep the CXL traffic load.  This
    combinator deterministically interleaves the two op streams so that a
    ``cxl_fraction`` share of the issued accesses belongs to the second
    workload.  Each inner workload keeps its own region, so the regions
    can be bound to different NUMA nodes.
    """

    def __init__(
        self, primary: Workload, secondary: Workload, secondary_fraction: float,
        name: str = "mixed",
    ) -> None:
        if not 0.0 <= secondary_fraction <= 1.0:
            raise ValueError("secondary_fraction must be in [0, 1]")
        total = primary.num_ops + secondary.num_ops
        super().__init__(
            name, max(primary.working_set_bytes, secondary.working_set_bytes),
            total, primary.seed,
        )
        self.primary = primary
        self.secondary = secondary
        self.secondary_fraction = secondary_fraction

    def install_split(
        self, machine, primary_node: int, secondary_node: int
    ) -> "InterleavedFlows":
        self.primary.install(machine, primary_node)
        self.secondary.install(machine, secondary_node)
        return self

    def ops(self) -> Iterator[MemOp]:
        primary_iter = self.primary.ops()
        secondary_iter = self.secondary.ops()
        credit = 0.0
        while True:
            credit += self.secondary_fraction
            take_secondary = credit >= 1.0
            if take_secondary:
                credit -= 1.0
                op = next(secondary_iter, None)
                if op is not None:
                    yield op
                    continue
                take_secondary = False
            op = next(primary_iter, None)
            if op is None:
                # Primary exhausted: drain whatever secondary ops remain.
                for rest in secondary_iter:
                    yield rest
                return
            yield op


class _Throttled(Workload):
    """``inner``'s op stream at ``load_fraction`` of its offered load.

    A module-level class, so a throttled workload pickles to a campaign
    worker like any other.
    """

    def __init__(self, inner: Workload, load_fraction: float) -> None:
        super().__init__(
            f"{inner.name}@{int(load_fraction * 100)}%",
            inner.working_set_bytes,
            inner.num_ops,
            inner.seed,
            vpn_base=inner.vpn_base,
        )
        self._inner = inner
        self.load_fraction = load_fraction

    def ops(self) -> Iterator[MemOp]:
        # An op at full load takes (gap + ~service); padding the gap by
        # the inverse load fraction thins the offered request rate.
        for op in self._inner.ops():
            extra = (op.gap + 8.0) * (1.0 / self.load_fraction - 1.0)
            yield MemOp(
                address=op.address,
                is_store=op.is_store,
                gap=op.gap + extra,
                dependent=op.dependent,
                software_prefetch=op.software_prefetch,
            )


def throttled(workload: Workload, load_fraction: float) -> Workload:
    """Scale a workload's offered load to ``load_fraction`` of full speed.

    Implemented by stretching compute gaps; this is how the interference
    cases sweep "CXL traffic load from 20% to 100%" (sections 5.4-5.5).
    """
    if not 0.0 < load_fraction <= 1.0:
        raise ValueError("load_fraction must be in (0, 1]")
    return _Throttled(workload, load_fraction)
