"""Stable observability contract between the simulator and recorders.

The hot path never calls a recorder through an abstraction layer - every
stage keeps a ``recorder`` attribute (and every cache/FIFO an
``observer``) that is ``None`` by default, so untraced runs pay a single
``is not None`` test per site.  What *is* stable is the shape of the
object a traced run plugs in: :class:`EngineHooks` names every callback
a stage may invoke, and :class:`StagePort` names every binding point one
machine exposes, so ``Machine.attach_recorder`` is a data-driven walk
over ports instead of hand-wired assignments.

Anything implementing :class:`EngineHooks` (the reference implementation
is :class:`repro.obs.FlightRecorder`) can be attached.  The engine runs
events in (time, insertion) order, so a recorder sees the same
hop/queue event stream on every run of a spec (see
``tests/test_obs_trace.py``).
"""

from __future__ import annotations

from typing import (
    Any,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

__all__ = ["EngineHooks", "StagePort"]


@runtime_checkable
class EngineHooks(Protocol):
    """Everything a stage may call on an attached recorder.

    Stages call these only when a recorder is attached; implementations
    must tolerate any request/item shape the stages use (pooled
    ``MemRequest`` objects are never handed to hooks - pooling is
    disabled while a recorder is attached precisely so traced requests
    stay alive for the recorder).
    """

    # -- request lifecycle ------------------------------------------------

    def maybe_trace(self, request: Any) -> Optional[Any]:
        """One request was created; 1-in-N get a trace attached."""

    def hop(self, request: Any, component: str, kind: str) -> None:
        """A traced request entered (``enq``) or left (``deq``) a stage."""

    def complete(self, request: Any) -> None:
        """A traced request finished its round trip."""

    # -- FIFO events ------------------------------------------------------

    def on_queue_push(self, queue: Any, item: Any) -> None:
        """An item entered a monitored hardware FIFO."""

    def on_queue_pop(self, queue: Any, item: Any) -> None:
        """An item left a monitored hardware FIFO."""

    def watch_queue(self, name: str, stats: Any) -> None:
        """Register a FIFO's ``QueueStats`` for the occupancy series."""

    # -- cache + epoch events ---------------------------------------------

    def on_cache_lookup(self, name: str, hit: bool) -> None:
        """A tag-array probe resolved (per cache, hit or miss)."""

    def epoch_mark(self, now: float) -> None:
        """The profiler closed one epoch at ``now``."""


class StagePort:
    """One named binding point between a machine stage and a recorder.

    A port bundles the stage's recorder hosts (objects with a
    ``recorder`` attribute), its caches (objects with an ``observer``
    attribute), its monitored FIFOs (observer + occupancy watch) and any
    stats-only watches.  ``bind``/``unbind`` apply the hooks in one
    deterministic order, so the recorder's watched-queue series is
    stable across attach paths.
    """

    __slots__ = ("name", "hosts", "caches", "queues", "watched")

    def __init__(
        self,
        name: str,
        hosts: Sequence[Any] = (),
        caches: Sequence[Any] = (),
        queues: Sequence[Any] = (),
        watched: Sequence[Tuple[str, Any]] = (),
    ) -> None:
        self.name = name
        self.hosts = tuple(hosts)
        self.caches = tuple(caches)
        self.queues = tuple(queues)
        self.watched = tuple(watched)

    def bind(self, hooks: EngineHooks) -> None:
        for host in self.hosts:
            host.recorder = hooks
        for cache in self.caches:
            cache.observer = hooks
        for queue in self.queues:
            queue.observer = hooks
            hooks.watch_queue(queue.name, queue.stats)
        for name, stats in self.watched:
            hooks.watch_queue(name, stats)

    def unbind(self) -> None:
        for host in self.hosts:
            host.recorder = None
        for cache in self.caches:
            cache.observer = None
        for queue in self.queues:
            queue.observer = None

    def __repr__(self) -> str:
        return f"StagePort({self.name!r})"


def iter_ports(machine: Any) -> Iterator[StagePort]:
    """The named binding points of one :class:`~repro.sim.Machine`.

    Port order is part of the contract: it fixes the order of
    ``watch_queue`` registrations (and therefore the occupancy series in
    trace reports).
    """
    for core in machine.cores:
        cid = core.core_id
        yield StagePort(
            f"core{cid}",
            hosts=(core,),
            caches=(core.l1d, core.l2),
            watched=(
                (f"core{cid}.lfb", core.lfb.stats),
                (f"core{cid}.sb", core.sb.stats),
            ),
        )
    yield StagePort(
        "cha",
        hosts=(machine.cha,),
        caches=tuple(s.llc for s in machine.cha.slices),
        watched=(("mesh", machine.mesh._queue.stats),),
    )
    for channel in machine.imc.channels:
        yield StagePort(
            channel.scope, hosts=(channel,), queues=(channel.rpq, channel.wpq)
        )
    for port in machine.m2pcie.values():
        yield StagePort(
            port.scope,
            hosts=(port,),
            queues=(port.ingress, port.down_link.queue, port.up_link.queue),
        )
    for device in machine.cxl_devices.values():
        yield StagePort(
            device.scope,
            hosts=(device,),
            queues=(device.rx_req, device.rx_data, device.mc_queue),
        )
