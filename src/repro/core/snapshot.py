"""Snapshot capture: one profiling epoch's PMU state.

PathFinder performs snapshot-based path-driven profiling (section 4.1):
at the end of every scheduling epoch it reads all PMUs, diffs against the
previous read, and tags the delta with the flows that ran.  The
:class:`Snapshot` is the unit every downstream technique (PFBuilder,
PFEstimator, PFAnalyzer, PFMaterializer) consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..pmu.registry import CounterRegistry, delta as counter_delta
from .mflow import MFlow

CounterKey = Tuple[str, str]

_snapshot_ids = itertools.count(1)

#: Events whose over-the-jump movement in a warped epoch is exact
#: bookkeeping (clock advance, ops consumed by ``Core.skip_ops``) and
#: therefore beats the steady-profile extrapolation.
_EXACT_OVER_WARP = frozenset(
    ["cpu_clk_unhalted", "inst_retired.any", "app.ops_completed"]
)


@dataclass
class Snapshot:
    """Counter activity between two PMU reads, tagged with live flows."""

    t_start: float
    t_end: float
    delta: Mapping[CounterKey, float]
    flows: List[MFlow] = field(default_factory=list)
    snapshot_id: int = field(default_factory=lambda: next(_snapshot_ids))
    #: True when this epoch was fast-forwarded (repro.sim.warp): the
    #: delta is part measurement (time integrals, retired ops) and part
    #: extrapolation of the steady per-epoch profile.
    warped: bool = False

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def flow_for_core(self, core_id: int) -> List[MFlow]:
        return [f for f in self.flows if f.core_id == core_id]

    def get(self, scope: str, event: str, default: float = 0.0) -> float:
        return self.delta.get((scope, event), default)


class SnapshotTaker:
    """Stateful reader turning absolute counters into epoch deltas."""

    def __init__(self, registry: CounterRegistry) -> None:
        self._registry = registry
        self._previous: Dict[CounterKey, float] = {}
        self._previous_time = 0.0

    def take(self, now: float, flows: Optional[List[MFlow]] = None) -> Snapshot:
        current = self._registry.snapshot(now)
        snapshot = Snapshot(
            t_start=self._previous_time,
            t_end=now,
            delta=counter_delta(current, self._previous),
            flows=list(flows or []),
        )
        for flow in snapshot.flows:
            flow.attach_snapshot(snapshot.snapshot_id)
        self._previous = current
        self._previous_time = now
        return snapshot

    def take_extrapolated(
        self,
        now: float,
        steady: Mapping[CounterKey, float],
        scale: float,
        flows: Optional[List[MFlow]] = None,
    ) -> Snapshot:
        """A synthetic epoch snapshot for a warped (fast-forwarded) span.

        Almost every counter gets ``scale`` x its steady per-epoch value:
        the warp's whole premise is that the steady profile is the best
        estimator for the skipped span.  The exceptions are counters
        whose movement over the jump is exact bookkeeping rather than an
        estimate - the clock itself and the instruction/op retirement
        booked by ``Core.skip_ops`` - which keep their natural delta.
        (Time-integral counters also move "naturally" over a jump, but
        only as ``instantaneous depth x span``, a worse estimator of the
        steady mean than the extrapolation, so they do not.)  The
        baseline then resets to the post-jump state, so the following
        exact (verification) epoch diffs cleanly.
        """
        current = self._registry.snapshot(now)
        merged: Dict[CounterKey, float] = {}
        for key, value in steady.items():
            scaled = value * scale
            if scaled != 0.0:
                merged[key] = scaled
        for key, value in counter_delta(current, self._previous).items():
            if key[1] in _EXACT_OVER_WARP:
                merged[key] = value
        snapshot = Snapshot(
            t_start=self._previous_time,
            t_end=now,
            delta=merged,
            flows=list(flows or []),
            warped=True,
        )
        for flow in snapshot.flows:
            flow.attach_snapshot(snapshot.snapshot_id)
        self._previous = current
        self._previous_time = now
        return snapshot
