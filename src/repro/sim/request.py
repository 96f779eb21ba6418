"""Memory request model.

Section 2.2 of the paper identifies four architectural request classes that
yield CXL.mem transactions: demand data read (DRd), demand write (DWr),
read-for-ownership (RFO) and hardware/software prefetch.  Section 2.1 maps
them onto the four CXL.mem flit transactions (M2S Req/RwD, S2M DRS/NDR).

A :class:`MemRequest` is created by a core (or prefetcher) and threaded
through every architectural module; each module stamps the request with the
outcome it observed so PathFinder-side code never needs simulator internals
beyond PMU counters, while tests can assert against the ground-truth trace.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, List, Optional, Tuple

CACHELINE = 64  # bytes
_LINE_MASK = ~(CACHELINE - 1)


class Path(enum.Enum):
    """Architectural data paths (paper Figure 1 and Table 5)."""

    DRD = "DRd"            # demand data read
    RFO = "RFO"            # read for ownership (demand store miss)
    DWR = "DWr"            # demand write / writeback stream
    L1_HWPF = "L1_HWPF"    # L1D hardware prefetch
    L2_HWPF_DRD = "L2_HWPF_DRd"
    L2_HWPF_RFO = "L2_HWPF_RFO"
    SWPF = "SWPF"          # software prefetch (merges into DRd after L1D)

    # Members are singletons compared by identity, so the C-level
    # identity hash serves the per-request key tables; Enum's own
    # ``__hash__`` is a Python call per lookup.
    __hash__ = object.__hash__

    @property
    def is_prefetch(self) -> bool:
        return self in _PREFETCH_PATHS

    @property
    def is_demand(self) -> bool:
        return self in (Path.DRD, Path.RFO, Path.DWR)

    @property
    def family(self) -> str:
        """Coarse grouping used in the paper's figures: DRd/RFO/HWPF/DWr."""
        if self in (Path.L1_HWPF, Path.L2_HWPF_DRD, Path.L2_HWPF_RFO, Path.SWPF):
            return "HWPF"
        return self.value


_PREFETCH_PATHS = frozenset(
    {Path.L1_HWPF, Path.L2_HWPF_DRD, Path.L2_HWPF_RFO, Path.SWPF}
)

PATH_FAMILIES = ("DRd", "RFO", "HWPF", "DWr")


class CXLOpcode(enum.Enum):
    """CXL.mem transaction opcodes (section 2.1)."""

    M2S_REQ = "Req"    # master-to-subordinate read request, no data
    M2S_RWD = "RwD"    # master-to-subordinate write request with data
    S2M_DRS = "DRS"    # data response (read return)
    S2M_NDR = "NDR"    # no-data response (write completion)


class ServeLocation(enum.Enum):
    """Where a request was ultimately served (CHA Table 2 scenarios)."""

    L1D = "L1D"
    LFB = "LFB"
    L2 = "L2"
    LOCAL_LLC = "local_LLC"       # the core's own SNC cluster LLC slice
    SNC_LLC = "snc_LLC"           # distant cluster slice on same socket
    REMOTE_LLC = "remote_LLC"     # another socket's cache (snoop hit)
    LOCAL_DRAM = "local_DRAM"
    REMOTE_DRAM = "remote_DRAM"   # cross-socket DDR
    CXL_DRAM = "CXL_DRAM"

    __hash__ = object.__hash__  # identity, as for Path

    @property
    def is_memory(self) -> bool:
        return self in (
            ServeLocation.LOCAL_DRAM,
            ServeLocation.REMOTE_DRAM,
            ServeLocation.CXL_DRAM,
        )


_req_ids = itertools.count()

#: Recycled MemRequest instances (bounded so pathological bursts don't pin
#: memory).  Pooling is hot-path-only: request classes with post-completion
#: observers (demand loads) are never released, and traced sessions bypass
#: the pool entirely.
_request_pool: List["MemRequest"] = []
_REQUEST_POOL_LIMIT = 4096


class MemRequest:
    """One cacheline-granular memory request walking the Clos network.

    Flat ``__slots__`` layout: requests are the simulator's most-allocated
    objects, so they carry no dict and can be recycled through
    :meth:`acquire`/:meth:`release` by call sites that can prove the
    request's lifetime ended (prefetches, RFOs, write-backs).  Only the
    constructor and :meth:`acquire` set ``address``, so its cacheline
    number ``line`` is a slot too.
    """

    __slots__ = (
        "address",
        "line",
        "path",
        "core_id",
        "issue_time",
        "is_store",
        "mflow_id",
        "req_id",
        "serve_location",
        "completion_time",
        "missed_l1",
        "missed_l2",
        "missed_llc",
        "dest_node",
        "cxl_opcode",
        "hops",
        "on_llc_miss",
        "trace",
        "_completion_waiters",
    )

    def __init__(
        self,
        address: int,
        path: Path,
        core_id: int,
        issue_time: float,
        is_store: bool = False,
        mflow_id: Optional[int] = None,
        req_id: Optional[int] = None,
    ) -> None:
        if address < 0:
            raise ValueError(f"negative address: {address:#x}")
        self.address = address & _LINE_MASK   # line_address, inline
        self.line = address // CACHELINE
        self.path = path
        self.core_id = core_id
        self.issue_time = issue_time
        self.is_store = is_store
        self.mflow_id = mflow_id
        self.req_id = next(_req_ids) if req_id is None else req_id
        # Outcome stamps, filled in as the request traverses the hierarchy.
        self.serve_location: Optional[ServeLocation] = None
        self.completion_time: Optional[float] = None
        self.missed_l1 = False
        self.missed_l2 = False
        self.missed_llc = False
        self.dest_node: Optional[int] = None  # NUMA node owning the address
        self.cxl_opcode: Optional[CXLOpcode] = None
        self.hops: List[Tuple[str, float]] = []
        # Optional hook the issuing core installs; the CHA fires it the
        # moment the LLC lookup resolves as a miss (feeds the
        # L3-miss-outstanding meter).
        self.on_llc_miss: Optional[Callable[[], None]] = None
        # Flight-recorder slot: the FlightRecorder attaches a RequestTrace
        # to sampled requests; every hop site checks it via the recorder.
        self.trace: Optional[object] = None
        # Completion watchers (dependent loads, window stalls) park here.
        self._completion_waiters: Optional[List[Callable[[], None]]] = None

    def __repr__(self) -> str:
        return (
            f"MemRequest(req_id={self.req_id}, address={self.address:#x}, "
            f"path={self.path!r}, core_id={self.core_id}, "
            f"serve_location={self.serve_location!r})"
        )

    # -- pooling --------------------------------------------------------

    @classmethod
    def acquire(
        cls,
        address: int,
        path: Path,
        core_id: int,
        issue_time: float,
        is_store: bool = False,
    ) -> "MemRequest":
        """Pooled constructor: reuse a released request when available."""
        pool = _request_pool
        if not pool:
            return cls(address, path, core_id, issue_time, is_store=is_store)
        self = pool.pop()
        if address < 0:
            raise ValueError(f"negative address: {address:#x}")
        self.address = address & _LINE_MASK
        self.line = address // CACHELINE
        self.path = path
        self.core_id = core_id
        self.issue_time = issue_time
        self.is_store = is_store
        self.mflow_id = None
        self.req_id = next(_req_ids)
        self.serve_location = None
        self.completion_time = None
        self.missed_l1 = False
        self.missed_l2 = False
        self.missed_llc = False
        self.dest_node = None
        self.cxl_opcode = None
        self.hops.clear()
        self.on_llc_miss = None
        self.trace = None
        self._completion_waiters = None
        return self

    def release(self) -> None:
        """Return this request to the pool.

        Only call when no component can still observe the request: its
        response callback ran, it is in no queue, and no trace references
        it.  The issuing sites for prefetches, RFOs and write-backs
        satisfy this; demand loads do not (dependent-load watchers read
        them after completion) and are left to the garbage collector.
        """
        if len(_request_pool) < _REQUEST_POOL_LIMIT:
            _request_pool.append(self)

    # -- trace helpers --------------------------------------------------

    def stamp(self, component: str, time: float) -> None:
        self.hops.append((component, time))

    def complete(self, location: ServeLocation, time: float) -> None:
        self.serve_location = location
        self.completion_time = time

    @property
    def latency(self) -> float:
        if self.completion_time is None:
            raise ValueError(f"request {self.req_id} has not completed")
        return self.completion_time - self.issue_time

    @property
    def is_cxl(self) -> bool:
        return self.serve_location is ServeLocation.CXL_DRAM or (
            self.cxl_opcode is not None
        )


class MemOp:
    """One workload-level memory operation fed to a core.

    ``gap`` is the number of compute cycles preceding the access (the
    non-memory instruction stream); ``dependent`` marks a load that needs
    the previous load's data before it can issue (pointer chasing);
    ``software_prefetch`` turns the access into a non-blocking SW PF.
    """

    __slots__ = ("address", "is_store", "gap", "dependent", "software_prefetch")

    def __init__(
        self,
        address: int,
        is_store: bool = False,
        gap: float = 0.0,
        dependent: bool = False,
        software_prefetch: bool = False,
    ) -> None:
        if gap < 0:
            raise ValueError("negative compute gap")
        if software_prefetch and is_store:
            raise ValueError("software prefetch cannot be a store")
        self.address = address
        self.is_store = is_store
        self.gap = gap
        self.dependent = dependent
        self.software_prefetch = software_prefetch

    def __repr__(self) -> str:
        return (
            f"MemOp(address={self.address:#x}, is_store={self.is_store}, "
            f"gap={self.gap}, dependent={self.dependent}, "
            f"software_prefetch={self.software_prefetch})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemOp):
            return NotImplemented
        return (
            self.address == other.address
            and self.is_store == other.is_store
            and self.gap == other.gap
            and self.dependent == other.dependent
            and self.software_prefetch == other.software_prefetch
        )


def line_address(address: int) -> int:
    """Align ``address`` down to its cacheline base."""
    if address < 0:
        raise ValueError(f"negative address: {address:#x}")
    return address & _LINE_MASK
