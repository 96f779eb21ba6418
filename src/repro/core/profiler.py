"""PathFinder orchestration (section 4.1's workflow, Figure 5-c).

``PathFinder.run()`` installs the applications on the machine, then drives
the simulation in scheduling epochs.  At each epoch boundary it takes a
PMU snapshot, associates it with the live mFlows, and pushes it through
PFBuilder (path map), PFEstimator (stall breakdown) and PFAnalyzer
(queue/culprit analysis).  The per-epoch results are collected into an
:class:`EpochResult` list that the case studies and the CLI render;
:meth:`PFMaterializer.from_result` builds the time-series view of a
finished session; a live run keeps only the rolling state its
per-epoch digests read.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

logger = logging.getLogger(__name__)

from ..obs import FlightRecorder, TraceReport
from ..sim.machine import Machine
from ..sim.warp import WarpController, WarpReport, coerce_fidelity
from .analyzer import AnalyzerReport, PFAnalyzer
from .builder import PFBuilder, PathMap
from .estimator import PFEstimator, StallBreakdown
from .mflow import MFlow, MFlowRegistry
from .snapshot import CounterKey, Snapshot, SnapshotTaker
from .spec import AppSpec, ProfileSpec, ProfilingMode


@dataclass
class EpochResult:
    """Everything PathFinder derived from one snapshot."""

    epoch: int
    snapshot: Snapshot
    path_map: PathMap
    stalls: StallBreakdown
    queues: AnalyzerReport

    @property
    def t_end(self) -> float:
        return self.snapshot.t_end


def analyze_epoch(epoch: int, snapshot: Snapshot) -> EpochResult:
    """PFBuilder, PFEstimator and PFAnalyzer over one snapshot.

    The one way an :class:`EpochResult` is made: a profiled epoch, an
    aggregated session's cumulative epoch and an epoch decoded from a
    session document all go through here, so equal snapshots always
    yield equal analyses.
    """
    return EpochResult(
        epoch=epoch,
        snapshot=snapshot,
        path_map=PFBuilder().build(snapshot),
        stalls=PFEstimator().breakdown(snapshot),
        queues=PFAnalyzer().analyze(snapshot),
    )


def _accumulate(
    totals: Dict[CounterKey, float], delta: Mapping[CounterKey, float]
) -> None:
    """Add one epoch's counter delta into ``totals`` (in place)."""
    for key, value in delta.items():
        totals[key] = totals.get(key, 0.0) + value


@dataclass
class ProfileResult:
    """A full profiling session: epoch series + final aggregate.

    A continuous session keeps every epoch and ``final`` is the last of
    them; an aggregated session keeps no epochs and ``final`` covers the
    whole session, its delta the sum of every epoch's.
    """

    epochs: List[EpochResult] = field(default_factory=list)
    final: Optional[EpochResult] = None
    flows: List[MFlow] = field(default_factory=list)
    total_cycles: float = 0.0
    # Flight-recorder output; None unless the spec carried a TraceSpec.
    trace: Optional[TraceReport] = None
    # Fast-forward audit trail; None unless fidelity was adaptive AND at
    # least one warp fired (exact runs never carry a report).
    warp: Optional[WarpReport] = None

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def series(self, fn) -> List[float]:
        """Map an extractor over the epoch results."""
        return [fn(e) for e in self.epochs]

    def session_epochs(self) -> List[EpochResult]:
        """The epochs that together cover the whole session: every epoch
        of a continuous session, the one final epoch of an aggregated
        one."""
        return self.epochs or ([self.final] if self.final else [])

    def counter_totals(self) -> Dict[CounterKey, float]:
        """Total ``(scope, event) -> value`` deltas over the whole session."""
        totals: Dict[CounterKey, float] = {}
        for epoch in self.session_epochs():
            _accumulate(totals, epoch.snapshot.delta)
        return totals


class PathFinder:
    """The profiler: wraps a machine and a profiling specification.

    With ``live`` (a :class:`repro.live.LiveSpec` or ``True``), each
    epoch is folded into a :class:`~repro.live.LiveMaterializer`'s
    O(1) rolling state, sim queues are delta-sampled each epoch, and
    each epoch's digest goes to ``on_epoch``, if given, *while the run
    is in flight* - the path the serve daemon streams from.
    """

    def __init__(
        self,
        machine: Machine,
        spec: ProfileSpec,
        live=None,
        on_epoch=None,
        fidelity=None,
    ) -> None:
        self.machine = machine
        self.spec = spec
        warp_spec = coerce_fidelity(fidelity)
        self.warp: Optional[WarpController] = None
        if warp_spec is not None:
            self.warp = WarpController(machine, warp_spec, spec.epoch_cycles)
        self.live = None
        self._on_epoch = on_epoch
        # Only a live run keeps rolling state as it goes: its digests
        # read it.  Any session materializes from its result.
        self.materializer = None
        if live is not None and live is not False:
            # Imported lazily: repro.live imports this module's siblings.
            from ..live import LiveMaterializer, QueueSampler, coerce_live

            self.live = coerce_live(live)
            self.materializer = LiveMaterializer(self.live)
            self._sampler = QueueSampler(machine)
        self.flows = MFlowRegistry()
        self.recorder: Optional[FlightRecorder] = None
        if spec.trace is not None:
            self.recorder = FlightRecorder(
                machine.engine,
                sample_every=spec.trace.sample_every,
                max_requests=spec.trace.max_requests,
            )
            machine.attach_recorder(self.recorder)
        self._taker = SnapshotTaker(machine.pmu)
        self._running_apps: Dict[int, AppSpec] = {}
        self._pending_starts = 0
        # Aggregated mode: the running sum of every epoch's delta.
        self._totals: Dict[CounterKey, float] = {}
        self._warped = False

    # -- setup -----------------------------------------------------------

    def _install(self, app: AppSpec) -> None:
        workload = app.workload
        if app.membind is not None:
            workload.install(self.machine, app.membind)
            nodes = [app.membind]
        elif app.interleave is not None:
            local, cxl, ratio = app.interleave
            workload.install_interleaved(self.machine, local, cxl, ratio)
            nodes = [local, cxl]
        else:
            # Caller already placed the pages (e.g. striped across a pool).
            nodes = list(app.preinstalled)
        for node_id in nodes:
            node = self.machine.address_space.node(node_id)
            self.flows.get_or_create(
                pid=app.pid,
                core_id=app.core,
                node_id=node_id,
                node_kind=node.kind.value,
                app_name=app.name,
                now=self.machine.now,
            )
        self._running_apps[app.pid] = app

        def finished(pid=app.pid) -> None:
            self.flows.end_all(pid, self.machine.now)
            self._running_apps.pop(pid, None)

        self.machine.pin(app.core, iter(workload), on_done=finished)

    def _deferred_install(self, app: AppSpec) -> None:
        self._pending_starts -= 1
        self._install(app)

    # -- thread migration (mFlow location sensitivity, section 4.2) --------

    def migrate(self, pid: int, new_core: int) -> None:
        """Move a profiled application to another core.

        The old (pid, core, node) flows end and fresh flows begin on the
        new core - "we would create and initiate a new mFlow when the
        thread migrates to a new core".
        """
        app = self._running_apps.get(pid)
        if app is None:
            raise KeyError(f"pid {pid} is not running")
        old_flows = [f for f in self.flows.flows_of(pid) if f.alive]

        def migrated() -> None:
            now = self.machine.now
            for flow in old_flows:
                flow.end(now)
            for flow in old_flows:
                self.flows.get_or_create(
                    pid=pid,
                    core_id=new_core,
                    node_id=flow.node_id,
                    node_kind=flow.node_kind,
                    app_name=flow.app_name,
                    now=now,
                )
            app.core = new_core

        self.machine.migrate(app.core, new_core, on_migrated=migrated)

    def schedule_migration(self, pid: int, new_core: int, at: float) -> None:
        """Arrange a migration at an absolute cycle time."""
        self.machine.engine.at(at, lambda: self._try_migrate(pid, new_core))

    def _try_migrate(self, pid: int, new_core: int) -> None:
        if pid in self._running_apps:
            self.migrate(pid, new_core)

    # -- main loop -----------------------------------------------------------

    def run(self) -> ProfileResult:
        for app in self.spec.apps:
            if app.start_at > 0:
                self._pending_starts += 1
                self.machine.engine.after(
                    app.start_at, lambda a=app: self._deferred_install(a)
                )
            else:
                self._install(app)
        result = ProfileResult()
        epoch = 0
        while (
            not self.machine.all_idle or self._pending_starts > 0
        ) and epoch < self.spec.max_epochs:
            epoch_start = self.machine.now
            self.machine.run(until=self.machine.now + self.spec.epoch_cycles)
            epoch += 1
            if self.recorder is not None:
                self.recorder.epoch_mark(self.machine.now)
            snapshot = self._taker.take(
                self.machine.now, flows=self._flows_since(epoch_start)
            )
            self._record(result, self._process(epoch, snapshot))
            if self.warp is not None:
                # Exact epochs feed the steady-state detector (and judge
                # the verification epoch after a warp); once armed, skip
                # ahead before paying for the next simulated epoch.
                self.warp.observe(snapshot.delta)
                epoch = self._maybe_warp(epoch, result)
        result.flows = self.flows.flows_of()
        result.total_cycles = self.machine.now
        if self.spec.mode is ProfilingMode.AGGREGATED and epoch:
            # One cumulative report: the whole session as one snapshot,
            # analysed like any epoch but not ingested a second time.
            result.final = analyze_epoch(epoch, Snapshot(
                t_start=0.0,
                t_end=self.machine.now,
                delta=self._totals,
                flows=list(result.flows),
                warped=self._warped,
            ))
        if self.warp is not None and self.warp.report.events:
            result.warp = self.warp.report
        if self.recorder is not None:
            result.trace = self.recorder.report()
        return result

    def _maybe_warp(self, epoch: int, result: ProfileResult) -> int:
        """Fast-forward if the warp is armed; returns the advanced epoch.

        A successful warp compresses ``skip_epochs`` epochs into one
        synthetic :class:`EpochResult` (its snapshot is flagged
        ``warped``) and advances the epoch counter by the span it covers,
        so ``max_epochs`` bounds the same amount of simulated work either
        way.  The next loop iteration then runs exactly - that is the
        verification epoch the controller judges in ``observe``.
        """
        assert self.warp is not None
        if (
            not self.warp.armed
            or self._pending_starts > 0
            or self.machine.all_idle
            or epoch >= self.spec.max_epochs
        ):
            return epoch
        attempt = self.warp.attempt()
        if attempt is None:
            return epoch
        steady, scale, event = attempt
        now = self.machine.now
        epoch += max(1, int(round(scale)))
        event.epoch = epoch
        if self.recorder is not None:
            self.recorder.epoch_mark(now)
            self.recorder.warp_mark(event.t_start, now)
        snapshot = self._taker.take_extrapolated(
            now, steady, scale, flows=self._flows_since(event.t_start)
        )
        self._record(result, self._process(epoch, snapshot))
        return epoch

    def _flows_since(self, start: float) -> List[MFlow]:
        """Flows alive at any point since ``start`` (one epoch's flows)."""
        return [
            f
            for f in self.flows.flows_of()
            if f.alive or (f.ended_at is not None and f.ended_at > start)
        ]

    def _record(self, result: ProfileResult, epoch_result: EpochResult) -> None:
        """Stream one epoch, then keep it (continuous) or sum it (aggregated)."""
        if self.live is not None:
            self._publish_epoch(epoch_result)
        if self.spec.mode is ProfilingMode.CONTINUOUS:
            result.epochs.append(epoch_result)
            result.final = epoch_result
        else:
            _accumulate(self._totals, epoch_result.snapshot.delta)
            self._warped = self._warped or epoch_result.snapshot.warped

    def _publish_epoch(self, epoch_result: EpochResult) -> None:
        """Hand one epoch's digest to ``on_epoch``."""
        from ..live import epoch_digest

        digest = epoch_digest(epoch_result, self.materializer,
                              queues=self._sampler.sample(self.machine.now))
        if self._on_epoch is not None:
            self._on_epoch(digest)

    def _process(self, epoch: int, snapshot: Snapshot) -> EpochResult:
        epoch_result = analyze_epoch(epoch, snapshot)
        if self.live is not None:
            self.materializer.ingest(snapshot, epoch_result.path_map)
        if logger.isEnabledFor(logging.DEBUG):
            culprit = epoch_result.queues.culprit()
            logger.debug(
                "epoch %d [%0.0f..%0.0f]: cxl_hits=%0.0f culprit=%s",
                epoch, snapshot.t_start, snapshot.t_end,
                epoch_result.path_map.cxl_hits(),
                f"{culprit.path}@{culprit.component}" if culprit else "-",
            )
        return epoch_result

