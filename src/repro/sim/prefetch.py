"""Hardware prefetchers.

Intel SPR/EMR cores carry L1D and L2 stride/stream prefetchers (and SPR
adds an LLC prefetcher, section 2.2 path #4).  We implement a classic
per-page stride detector: it watches demand accesses, learns a stride once
it repeats with enough confidence, then issues ``degree`` prefetch
requests ahead of the stream.  Prefetches are asynchronous - they do not
stall the core - but consume the same downstream resources as demand
requests, which is how the paper's HWPF-path congestion effects appear.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .request import CACHELINE, Path

_PAGE_SHIFT = 12  # stride tracking region (4 KiB, like Intel's DCU IP)

# Enum member lookups are attribute calls on CPython 3.11; the hot
# paths use these module-level aliases instead.
_L1_HWPF = Path.L1_HWPF
_L2_HWPF_DRD = Path.L2_HWPF_DRD
_L2_HWPF_RFO = Path.L2_HWPF_RFO


class StrideEntry:
    """One tracked page: last line seen, learned stride, confidence."""

    __slots__ = ("last_line", "stride", "confidence")

    def __init__(self, last_line: int, stride: int = 0, confidence: int = 0) -> None:
        self.last_line = last_line
        self.stride = stride
        self.confidence = confidence


class StridePrefetcher:
    """Per-page stride detector emitting lookahead prefetch addresses."""

    def __init__(
        self,
        path: Path,
        degree: int = 2,
        distance: int = 4,
        table_entries: int = 64,
        min_confidence: int = 2,
    ) -> None:
        if degree < 0 or distance < 1:
            raise ValueError("degree must be >= 0 and distance >= 1")
        self.path = path
        self.degree = degree
        self.distance = distance
        self.table_entries = table_entries
        self.min_confidence = min_confidence
        # Insertion-ordered dict doubles as the LRU list: a touch re-inserts
        # the key at the back, the victim is the front (first key).
        self._table: Dict[int, StrideEntry] = {}
        self.issued = 0
        self.trained = 0

    def observe(self, address: int) -> List[int]:
        """Feed one demand access; returns prefetch addresses to issue."""
        line = address // CACHELINE
        page = address >> _PAGE_SHIFT
        table = self._table
        entry = table.get(page)
        if entry is None:
            if len(table) >= self.table_entries:
                del table[next(iter(table))]
            table[page] = StrideEntry(line)
            return []
        del table[page]  # re-insert at the LRU back
        table[page] = entry
        stride = line - entry.last_line
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 8)
        else:
            entry.confidence = max(entry.confidence - 1, 0)
            if entry.confidence == 0:
                entry.stride = stride
        entry.last_line = line
        if entry.confidence < self.min_confidence or entry.stride == 0:
            return []
        self.trained += 1
        prefetches = []
        for k in range(1, self.degree + 1):
            target = line + entry.stride * (self.distance + k - 1)
            if target < 0:
                continue
            prefetches.append(target * CACHELINE)
        self.issued += len(prefetches)
        return prefetches


class CorePrefetchers:
    """The L1D and L2 prefetch engines attached to one core.

    The L2 prefetcher is trained by L2 accesses (i.e. L1 misses) and runs
    deeper/stronger; the L1D (DCU) prefetcher is shallow.  ``l2_rfo_ratio``
    makes a fraction of L2 prefetches RFO-flavoured, matching the
    ``ocr.l2_hw_pf_rfo`` path in Table 5.
    """

    def __init__(
        self,
        l1_degree: int = 1,
        l2_degree: int = 3,
        l2_rfo_ratio: float = 0.0,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.l1 = StridePrefetcher(Path.L1_HWPF, degree=l1_degree, distance=4)
        self.l2 = StridePrefetcher(Path.L2_HWPF_DRD, degree=l2_degree, distance=16)
        self.l2_rfo_ratio = l2_rfo_ratio
        self._l2_counter = 0

    def on_l1_access(self, address: int) -> List[Tuple[int, Path]]:
        if not self.enabled:
            return []
        addresses = self.l1.observe(address)
        if not addresses:
            return []
        return [(a, _L1_HWPF) for a in addresses]

    def on_l2_access(self, address: int, was_store: bool) -> List[Tuple[int, Path]]:
        if not self.enabled:
            return []
        addresses = self.l2.observe(address)
        if not addresses:
            return []
        out: List[Tuple[int, Path]] = []
        for a in addresses:
            self._l2_counter += 1
            rfo_every = (
                int(1.0 / self.l2_rfo_ratio) if self.l2_rfo_ratio > 0 else 0
            )
            if was_store and rfo_every and self._l2_counter % rfo_every == 0:
                out.append((a, _L2_HWPF_RFO))
            else:
                out.append((a, _L2_HWPF_DRD))
        return out
