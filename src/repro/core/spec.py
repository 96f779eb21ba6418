"""Profiling task specification (paper Figure 5-a).

PathFinder's inputs: the applications (single or multi-tenant), their
running environment (pinned cores, bound memory nodes) and the profiler
specification (mode, tracing granularity, resource cap).  Every result
carries every analysis - path map, stall breakdown, queue report - so
there is nothing to select per report.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..workloads.base import Workload

_pids = itertools.count(1000)


class ProfilingMode(enum.Enum):
    CONTINUOUS = "continuous"   # per-epoch reports over the app lifetime
    # One cumulative report at exit: the result keeps no epoch list, and
    # its final epoch sums every epoch's counters over the whole session.
    AGGREGATED = "aggregated"


@dataclass
class AppSpec:
    """One tenant: a workload pinned to a core with a memory policy."""

    workload: Workload
    core: int
    # Memory binding: a single node id, (local_node, cxl_node, ratio) for
    # interleaved placement, or - when the caller already placed the pages
    # (striping across a CXL pool, custom policies) - the list of node ids
    # the working set touches, so mFlows are registered per node.
    membind: Optional[int] = None
    interleave: Optional[Tuple[int, int, float]] = None
    preinstalled: Optional[Sequence[int]] = None
    # Launch delay in cycles: 0 = start with the session.  Case 6 launches
    # disturbing neighbours mid-profile to observe locality shifts.
    start_at: float = 0.0
    pid: int = field(default_factory=lambda: next(_pids))

    def __post_init__(self) -> None:
        modes = sum(
            1
            for mode in (self.membind, self.interleave, self.preinstalled)
            if mode is not None
        )
        if modes != 1:
            raise ValueError(
                "specify exactly one of membind / interleave / preinstalled"
            )

    @property
    def name(self) -> str:
        return self.workload.name


@dataclass
class TraceSpec:
    """Flight-recorder configuration (off unless attached to the spec).

    ``sample_every`` traces 1-in-N memory requests (the overhead knob);
    ``max_requests`` caps the retained traces so a long session cannot
    grow without bound.
    """

    sample_every: int = 64
    max_requests: int = 100_000

    def __post_init__(self) -> None:
        if self.sample_every <= 0:
            raise ValueError("trace sample_every must be positive")
        if self.max_requests <= 0:
            raise ValueError("trace max_requests must be positive")


@dataclass
class ProfileSpec:
    """The full profiling task."""

    apps: List[AppSpec]
    epoch_cycles: float = 50_000.0
    mode: ProfilingMode = ProfilingMode.CONTINUOUS
    max_epochs: int = 10_000
    # Request-path tracing; None (the default) records nothing.
    trace: Optional[TraceSpec] = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("profile at least one application")
        if self.epoch_cycles <= 0:
            raise ValueError("epoch must be positive")
        cores = [a.core for a in self.apps]
        if len(cores) != len(set(cores)):
            raise ValueError("two applications pinned to the same core")
