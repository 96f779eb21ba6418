"""Core model: pipeline front of the Clos network.

A :class:`Core` pulls :class:`~repro.sim.request.MemOp` items from a
workload, pushes them through its private hierarchy (SB -> L1D -> LFB ->
L2) and hands L2 misses to the CHA.  It is the ingress stage of the
paper's Clos view (section 4.1) and the place where every core-PMU event
of Table 1 is produced.

Stall semantics
---------------
The core blocks - and stall-cycle counters tick - in exactly the
situations the paper measures:

* store issue with a full SB (``resource_stalls.sb`` when loads are in
  flight, ``exe_activity.bound_on_stores`` otherwise);
* load miss with a full LFB (``l1d_pend_miss.fb_full``);
* a dependent load whose producer has not returned, or the out-of-order
  window (bounded outstanding demand loads) filling up - during such waits
  ``memory_activity.stalls_l{1d,2}_miss`` / ``cycle_activity.stalls_l3_miss``
  tick according to how deep the blocking load has missed.

Latency observation mirrors perf's load-latency sampling: at completion,
each demand load adds its end-to-end latency to a per-serve-location
histogram (``lat_sample.<location>.{sum,count}``), which is what gives
PFAnalyzer its per-hop delays without touching simulator internals.
"""

from __future__ import annotations

import functools
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

from ..pmu.registry import CounterRegistry
from .address import AddressSpace
from .cache import Cache, MESIF
from .cha import CHA
from .engine import Engine
from .lfb import LineFillBuffer
from .prefetch import CorePrefetchers
from .request import MemOp, MemRequest, Path, ServeLocation
from .store_buffer import StoreBuffer


def _build_l2_tables():
    """Precompute the L2 PMU event tuples per (path, outcome).

    One L2 access fans into several counters whose names depend only on
    the request's path and hit/miss outcome; expanding the product once
    turns the per-request conditionals into a dict lookup feeding
    ``pmu.add_many``.  Event order matches the original add order.
    """
    ref_keys = {}
    out_keys = {}
    for path in Path:
        if path is Path.DRD:
            ref_keys[path] = (
                "l2_rqsts.references",
                "l2_rqsts.all_demand_references",
                "l2_rqsts.all_demand_data_rd",
            )
        else:
            ref_keys[path] = ("l2_rqsts.references",)
        for hit in (True, False):
            suffix = "hit" if hit else "miss"
            keys = []
            if path is Path.DRD:
                keys += [f"l2_rqsts.demand_data_rd_{suffix}",
                         f"mem_load_retired.l2_{suffix}"]
                if not hit:
                    keys += ["l2_rqsts.all_demand_miss",
                             "offcore_requests.demand_data_rd"]
            elif path is Path.RFO:
                keys.append(f"l2_rqsts.rfo_{suffix}")
                if hit:
                    keys.append("mem_store_retired.l2_hit")
            elif path is Path.SWPF:
                keys.append(f"l2_rqsts.swpf_{suffix}")
            else:
                keys.append(f"l2_rqsts.pf_{suffix}")
            if not hit:
                keys += ["l2_rqsts.miss", "offcore_requests.all.requests",
                         "offcore_requests.data_rd"]
            out_keys[(path, hit)] = tuple(keys)
    return ref_keys, out_keys


_L2_REF_KEYS, _L2_OUT_KEYS = _build_l2_tables()


@functools.lru_cache(maxsize=None)
def _l2_access_keys(scope: str) -> Dict[tuple, tuple]:
    """One core's counter keys per L2 access, by (path, hit, is_store).

    The references and the outcome are bumped by one ``add_many`` once
    the lookup resolved; stores do not count ``offcore_requests.data_rd``.
    Cached per scope: every machine's ``core0`` shares one table.
    """
    table = {}
    for (path, hit), out in _L2_OUT_KEYS.items():
        for is_store in (False, True):
            events = _L2_REF_KEYS[path] + (
                out[:-1] if is_store and not hit else out
            )
            table[(path, hit, is_store)] = tuple(
                (scope, event) for event in events
            )
    return table


@functools.lru_cache(maxsize=None)
def _load_retire_keys(scope: str) -> Dict[str, tuple]:
    """A load's retirement keys by outcome: all_loads plus where it hit."""
    return {
        outcome: ((scope, "mem_inst_retired.all_loads"),
                  (scope, f"mem_load_retired.{outcome}"))
        for outcome in ("l1_hit", "fb_hit", "l1_miss")
    }


# Per-serve-location latency histogram keys (f-string-free hot path).
_LAT_KEYS = {
    location: (f"lat_sample.{location.value}.sum",
               f"lat_sample.{location.value}.count")
    for location in ServeLocation
}

_DEMAND_PATHS = (Path.DRD, Path.RFO)
_RFO_PATHS = (Path.RFO, Path.L2_HWPF_RFO)
_OWNED_STATES = (MESIF.MODIFIED, MESIF.EXCLUSIVE)
_SHARED_STATES = (MESIF.SHARED, MESIF.FORWARD)
# Enum member lookups are attribute calls on CPython 3.11; the hot
# paths use these module-level aliases instead.
_DRD = Path.DRD
_RFO = Path.RFO
_SWPF = Path.SWPF
_L1_HWPF = Path.L1_HWPF
_MODIFIED = MESIF.MODIFIED
_EXCLUSIVE = MESIF.EXCLUSIVE
_SHARED = MESIF.SHARED
_SERVED_BY_L2 = ServeLocation.L2


class GatedIntegrator:
    """Integral of a count over time, plus cycles where count > 0.

    The primitive behind ``offcore_requests_outstanding.*`` and
    ``cycle_activity.cycles_l*_miss``.  Each method folds in
    ``count * (now - last)`` first, written out rather than called.
    """

    __slots__ = ("count", "integral", "active_cycles", "_last")

    def __init__(self) -> None:
        self.count = 0
        self.integral = 0.0
        self.active_cycles = 0.0
        self._last = 0.0

    def inc(self, now: float) -> None:
        count = self.count
        dt = now - self._last
        if dt > 0:
            self.integral += count * dt
            if count > 0:
                self.active_cycles += dt
        self._last = now
        self.count = count + 1

    def dec(self, now: float) -> None:
        count = self.count
        dt = now - self._last
        if dt > 0:
            self.integral += count * dt
            if count > 0:
                self.active_cycles += dt
        self._last = now
        self.count = count - 1

    def sync(self, now: float) -> None:
        dt = now - self._last
        if dt > 0:
            self.integral += self.count * dt
            if self.count > 0:
                self.active_cycles += dt
        self._last = now


class Core:
    """One CPU core with private L1D/L2, SB, LFB and prefetch engines."""

    def __init__(
        self,
        core_id: int,
        engine: Engine,
        pmu: CounterRegistry,
        cha: CHA,
        address_space: AddressSpace,
        l1d_size: int = 48 * 1024,
        l1d_ways: int = 12,
        l2_size: int = 2 * (1 << 20),
        l2_ways: int = 16,
        sb_entries: int = 56,
        lfb_entries: int = 16,
        max_outstanding_loads: int = 48,
        l1_latency: float = 5.0,
        l2_latency: float = 15.0,
        prefetchers: Optional[CorePrefetchers] = None,
    ) -> None:
        self.core_id = core_id
        self.engine = engine
        self.pmu = pmu
        self.cha = cha
        self.address_space = address_space
        self.scope = f"core{core_id}"
        self._l2_keys = _l2_access_keys(self.scope)
        self._load_keys = _load_retire_keys(self.scope)
        self.l1d = Cache(l1d_size, l1d_ways, name=f"core{core_id}.l1d")
        self.l2 = Cache(l2_size, l2_ways, name=f"core{core_id}.l2")
        self.sb = StoreBuffer(engine, sb_entries, core_id)
        self.lfb = LineFillBuffer(engine, lfb_entries, core_id)
        self.prefetchers = prefetchers or CorePrefetchers()
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.max_outstanding_loads = max_outstanding_loads

        # Flight recorder; None unless the profiling spec asked for tracing.
        self.recorder = None
        self._workload: Optional[Iterator[MemOp]] = None
        self._l2_pf_pending: set = set()
        self._rfo_pending: Dict[int, List] = {}
        self._handover = None
        self._running = False
        # Optional sampling hook: tiering engines (TPP) register here to
        # observe the virtual access stream, standing in for NUMA hint
        # faults.  Called as probe(core_id, virtual_address, is_store).
        self.access_probe: Optional[Callable[[int, int, bool], None]] = None
        self._done_callback: Optional[Callable[[], None]] = None
        self._last_load: Optional[MemRequest] = None
        self._outstanding_demand: Dict[int, MemRequest] = {}

        # Stall/latency integrators.
        self._oro_demand_rd = GatedIntegrator()   # outstanding demand reads
        self._oro_all_rd = GatedIntegrator()      # demand + prefetch reads
        self._l1_miss_out = GatedIntegrator()
        self._l2_miss_out = GatedIntegrator()
        self._l3_miss_out = GatedIntegrator()
        self.ops_completed = 0
        self.loads_issued = 0
        self.stores_issued = 0
        pmu.on_sync(self._sync)

    # -- lifecycle -------------------------------------------------------

    def run(self, workload: Iterator[MemOp], on_done: Optional[Callable[[], None]] = None) -> None:
        """Start executing ``workload``; ``on_done`` fires at exhaustion."""
        if self._running:
            raise RuntimeError(f"core {self.core_id} is already running")
        self._workload = iter(workload)
        self._done_callback = on_done
        self._running = True
        self.engine.post(self._next_op)

    @property
    def running(self) -> bool:
        return self._running

    def skip_ops(self, count: int) -> int:
        """Consume up to ``count`` ops without simulating them.

        The warp fast-forward (:mod:`repro.sim.warp`) uses this to retire
        steady-state work analytically: the ops are drawn from the
        workload iterator and booked as completed instructions, but no
        requests enter the memory hierarchy - the skipped span's counters
        are extrapolated by the caller instead.  Returns the number of
        ops actually consumed (less than ``count`` when the workload runs
        dry; exhaustion still fires through the normal ``_next_op`` path
        so the done callback and idle accounting stay untouched).
        """
        if not self._running or self._workload is None or count <= 0:
            return 0
        skipped = 0
        retired = 0.0
        workload = self._workload
        while skipped < count:
            try:
                op = next(workload)
            except StopIteration:
                break
            retired += 1.0 + op.gap
            skipped += 1
        if retired:
            self.pmu.add(self.scope, "inst_retired.any", retired)
        self.ops_completed += skipped
        return skipped

    def request_preempt(
        self, handover: Callable[[Iterator[MemOp], Optional[Callable[[], None]]], None]
    ) -> None:
        """Preempt at the next op boundary (OS context switch).

        ``handover(remaining_ops, on_done)`` receives the un-consumed
        workload iterator and the original completion callback, so the
        scheduler can resume the thread on another core.  Requests already
        in flight drain on this core, exactly as hardware would.
        """
        if not self._running:
            raise RuntimeError(f"core {self.core_id} is not running anything")
        self._handover = handover

    def _next_op(self) -> None:
        assert self._workload is not None
        if self._handover is not None:
            handover, self._handover = self._handover, None
            workload, self._workload = self._workload, None
            done, self._done_callback = self._done_callback, None
            self._running = False
            handover(workload, done)
            return
        try:
            op = next(self._workload)
        except StopIteration:
            self._running = False
            if self._done_callback:
                self._done_callback()
            return
        self.pmu.add(self.scope, "inst_retired.any", 1.0 + op.gap)
        if op.gap > 0:
            self.engine.after(op.gap, partial(self._issue, op))
        else:
            self._issue(op)

    # -- issue -----------------------------------------------------------

    def _issue(self, op: MemOp) -> None:
        if self.access_probe is not None:
            self.access_probe(self.core_id, op.address, op.is_store)
        physical = self.address_space.translate(op.address)
        if op.software_prefetch:
            self._issue_swpf(physical)
            self._op_done()
            return
        if op.is_store:
            self._issue_store(physical)
        else:
            self._issue_load(physical, op.dependent)

    def _op_done(self) -> None:
        self.ops_completed += 1
        self.engine.post(self._next_op)

    # -- stall accounting ----------------------------------------------------

    def _stalled(self, start: float, reason: str, request: Optional[MemRequest]) -> None:
        """Book a blocked interval ``[start, now)`` against PMU counters.

        The interval is measured with :meth:`Engine.elapsed`, which
        excludes fast-forwarded spans - a stall in flight across a warp
        already had its skipped cycles extrapolated into the warped
        epoch's counters.
        """
        duration = self.engine.elapsed(start)
        if duration <= 0:
            return
        if reason == "sb":
            if self._outstanding_demand:
                self.pmu.add(self.scope, "resource_stalls.sb", duration)
            else:
                self.pmu.add(self.scope, "exe_activity.bound_on_stores", duration)
            return
        if reason == "lfb_full":
            self.pmu.add(self.scope, "l1d_pend_miss.fb_full", duration)
        # Intel semantics: memory_activity.stalls_lX_miss counts execution
        # stall cycles while *any* LX-miss demand load is outstanding.
        # The blocking request's own miss flags stand in for the counts,
        # which may already have been decremented by the time we wake.
        if (
            reason == "lfb_full"
            or self._l1_miss_out.count > 0
            or (request is not None and request.missed_l1)
        ):
            self.pmu.add(self.scope, "memory_activity.stalls_l1d_miss", duration)
        if self._l2_miss_out.count > 0 or (
            request is not None and request.missed_l2
        ):
            self.pmu.add(self.scope, "memory_activity.stalls_l2_miss", duration)
        if self._l3_miss_out.count > 0 or (
            request is not None and request.missed_llc
        ):
            self.pmu.add(self.scope, "cycle_activity.stalls_l3_miss", duration)

    # -- store path (DWr / RFO, section 2.2 paths #2-#3) -------------------

    def _issue_store(self, address: int) -> None:
        entry = self.sb.allocate(address // 64)
        if entry is None:
            start = self.engine.now
            self.sb.space_waiter.wait(
                lambda: (self._stalled(start, "sb", None), self._issue_store(address))
            )
            return
        self.stores_issued += 1
        self.pmu.add(self.scope, "mem_inst_retired.all_stores")
        for addr, path in self.prefetchers.on_l1_access(address):
            self._issue_hw_prefetch(addr, path)
        line = self.l1d.lookup(address)
        if line is not None and line.state in _OWNED_STATES:
            # Owned: commit in place, drain the SB entry after commit latency.
            line.state = _MODIFIED
            line.dirty = True
            self.cha.directory.mark_modified(address // 64, self.core_id)
            self.engine.after(self.l1_latency, partial(self.sb.release, entry))
            self._op_done()
            return
        # Not owned: RFO to gain exclusive access.  The pipeline moves on;
        # the SB entry drains when ownership data returns.  Stores to a
        # line whose RFO is already in flight coalesce onto it.
        line = address // 64
        pending = self._rfo_pending.get(line)
        if pending is not None:
            pending.append(entry)
            self._op_done()
            return
        self._rfo_pending[line] = [entry]
        if self.recorder is None:
            request = MemRequest.acquire(
                address, _RFO, self.core_id, self.engine.now
            )
            request.missed_l1 = True
        else:
            request = MemRequest(
                address=address,
                path=_RFO,
                core_id=self.core_id,
                issue_time=self.engine.now,
            )
            request.missed_l1 = True
            self.recorder.maybe_trace(request)
        self.pmu.add(self.scope, "l2_rqsts.all_rfo")
        self._access_l2(request, self._rfo_done)
        self._op_done()

    def _rfo_done(self, req: MemRequest) -> None:
        self._fill_l1(req.address, _MODIFIED, True)
        self.cha.directory.mark_modified(req.line, self.core_id)
        self._record_latency(req)
        for waiting in self._rfo_pending.pop(req.line, []):
            self.sb.release(waiting)
        if self.recorder is None:
            req.release()

    # -- load path (DRd, section 2.2 path #1) ----------------------------------

    def _issue_load(self, address: int, dependent: bool) -> None:
        # A dependent load must wait for the previous load's data; a full
        # out-of-order window must wait for the oldest load to drain.
        previous = self._last_load
        blocker: Optional[MemRequest] = None
        if dependent and previous is not None and previous.completion_time is None:
            blocker = previous
        elif len(self._outstanding_demand) >= self.max_outstanding_loads:
            blocker = next(iter(self._outstanding_demand.values()))
        if blocker is not None:
            start = self.engine.now
            self._watch_completion(
                blocker,
                lambda: (
                    self._stalled(start, "load", blocker),
                    self._issue_load(address, dependent),
                ),
            )
            return
        self.loads_issued += 1
        for addr, path in self.prefetchers.on_l1_access(address):
            self._issue_hw_prefetch(addr, path)
        # all_loads is bumped with the outcome, in one add: nothing up to
        # there bumps a counter.
        line = self.l1d.lookup(address)
        if line is not None:
            self.pmu.add_many(self._load_keys["l1_hit"])
            self._last_load = None
            self._op_done()
            return
        now = self.engine.now
        request = MemRequest(address, _DRD, self.core_id, now)
        request.missed_l1 = True
        if self.recorder is not None:
            self.recorder.maybe_trace(request)
        self._outstanding_demand[request.req_id] = request
        self._l1_miss_out.inc(now)
        self._last_load = request
        # LFB: coalesce onto an in-flight line, else take a new entry.
        # Intel keeps l1_hit / l1_miss / fb_hit disjoint (Table 1).
        if request.line in self.lfb.in_flight:
            self.lfb.coalesce(request.line, partial(self._demand_filled, request))
            self.pmu.add_many(self._load_keys["fb_hit"])
            self._op_done()
            return
        self.pmu.add_many(self._load_keys["l1_miss"])
        self._allocate_lfb_and_descend(request)

    def _allocate_lfb_and_descend(self, request: MemRequest) -> None:
        entry = self.lfb.allocate(request)
        if entry is None:
            start = self.engine.now
            self.lfb.space_waiter.wait(
                lambda: (
                    self._stalled(start, "lfb_full", None),
                    self._allocate_lfb_and_descend(request),
                )
            )
            return
        if self.recorder is not None:
            self.recorder.hop(request, "LFB", "enq")
        now = self.engine.now
        self._oro_demand_rd.inc(now)
        self._oro_all_rd.inc(now)
        self._access_l2(request, self._load_done)
        self._op_done()

    def _load_done(self, req: MemRequest) -> None:
        self._fill_l1(req.address, _EXCLUSIVE)
        self._record_latency(req)
        now = self.engine.now
        self._oro_demand_rd.dec(now)
        self._oro_all_rd.dec(now)
        self.lfb.fill(req.line)
        if self.recorder is not None:
            self.recorder.hop(req, "LFB", "deq")
        self._demand_filled(req)

    def _demand_filled(self, request: MemRequest, _fill_time: float = 0.0) -> None:
        """A demand load's data is usable: clear outstanding bookkeeping.

        A load coalesced onto an in-flight line runs this as its LFB
        waiter, which also passes the fill time.
        """
        now = self.engine.now
        if request.completion_time is None:
            request.completion_time = now
        if self.recorder is not None:
            self.recorder.complete(request)
        self._outstanding_demand.pop(request.req_id, None)
        self._l1_miss_out.dec(now)
        if request.missed_l2 and request.path is _DRD:
            self._l2_miss_out.dec(now)
        if request.missed_llc and request.path is _DRD:
            self._l3_miss_out.dec(now)
        if request._completion_waiters:
            self._notify_completion(request)

    def _watch_completion(self, request: MemRequest, callback: Callable[[], None]) -> None:
        """Poll-free completion watch: piggyback on the request's fill."""
        if request.completion_time is not None:
            self.engine.post(callback)
            return
        waiters = request._completion_waiters
        if waiters is None:
            request._completion_waiters = [callback]
        else:
            waiters.append(callback)

    def _notify_completion(self, request: MemRequest) -> None:
        """Post the watchers parked on a request that has completed."""
        post = self.engine.post
        for callback in request._completion_waiters:
            post(callback)
        request._completion_waiters = None

    # -- L2 and beyond ------------------------------------------------------

    def _access_l2(
        self, request: MemRequest, on_done: Callable[[MemRequest], None]
    ) -> None:
        """Look up L2 after the L1->L2 transfer latency."""
        self.engine.after(self.l2_latency, partial(self._at_l2, request, on_done))

    def _at_l2(
        self, request: MemRequest, on_done: Callable[[MemRequest], None]
    ) -> None:
        engine = self.engine
        request.hops.append(("l2", engine.now))
        if self.recorder is not None:
            self.recorder.hop(request, "L2", "enq")
        path = request.path
        line = self.l2.lookup(request.address)
        # Prefetchers train on demand traffic only; letting prefetches
        # re-train them would self-sustain an infinite stream.
        if path in _DEMAND_PATHS:
            for addr, pf_path in self.prefetchers.on_l2_access(
                request.address, path is _RFO
            ):
                self._issue_hw_prefetch(addr, pf_path)
        # References and outcome in one add: nothing above bumps a counter.
        self.pmu.add_many(
            self._l2_keys[(path, line is not None, request.is_store)]
        )
        if line is not None:
            if path not in _RFO_PATHS or line.state not in _SHARED_STATES:
                engine.after(
                    self.l2_latency, partial(self._l2_served, request, on_done)
                )
                return
            # Upgrade needed despite L2 presence: go to CHA.
            if self.recorder is not None:
                self.recorder.hop(request, "L2", "deq")
        else:
            request.missed_l2 = True
            if self.recorder is not None:
                self.recorder.hop(request, "L2", "deq")
            if path is _DRD:
                self._l2_miss_out.inc(engine.now)
        if path is _DRD:
            # The L3-miss-outstanding meter ticks only once the CHA resolves
            # the lookup as a miss; the CHA flips this hook at that point.
            request.on_llc_miss = self._llc_missed
        self.cha.submit(request, partial(self._uncore_done, on_done))

    def _l2_served(self, request: MemRequest, on_done) -> None:
        request.complete(_SERVED_BY_L2, self.engine.now)
        if self.recorder is not None:
            self.recorder.hop(request, "L2", "deq")
            self.recorder.complete(request)
        on_done(request)
        if request._completion_waiters:
            self._notify_completion(request)

    def _llc_missed(self) -> None:
        self._l3_miss_out.inc(self.engine.now)

    def _uncore_done(self, on_done, req: MemRequest) -> None:
        self._fill_l2(req)
        on_done(req)
        if req._completion_waiters:
            self._notify_completion(req)

    # -- fills / evictions ---------------------------------------------------

    def _fill_l2(self, request: MemRequest) -> None:
        state = (
            _EXCLUSIVE
            if request.path in _RFO_PATHS
            else _SHARED
        )
        evicted = self.l2.fill(request.address, state)
        if evicted is not None:
            self.l1d.invalidate(evicted.address)
            if evicted.dirty:
                self.cha.writeback(evicted.address, self.core_id)
            else:
                self.cha.directory.drop(evicted.address // 64, self.core_id)

    def _fill_l1(self, address: int, state: MESIF, dirty: bool = False) -> None:
        evicted = self.l1d.fill(address, state, dirty)
        if evicted is not None:
            self.pmu.add(self.scope, "l1d.replacement")
            if evicted.dirty:
                # Dirty L1 victim folds into L2 (write-back cache).
                self.l2.fill(evicted.address, _MODIFIED, True)

    def _record_latency(self, request: MemRequest) -> None:
        if request.serve_location is None or request.completion_time is None:
            return
        sum_key, count_key = _LAT_KEYS[request.serve_location]
        self.pmu.add(self.scope, sum_key,
                     self.engine.elapsed(request.issue_time,
                                         request.completion_time))
        self.pmu.add(self.scope, count_key)

    # -- prefetch issue -----------------------------------------------------

    def _issue_hw_prefetch(self, address: int, path: Path) -> None:
        """Asynchronous prefetch: never blocks, drops instead of stalling."""
        if self.l1d.probe(address) is not None:
            return
        pooled = self.recorder is None
        if pooled:
            request = MemRequest.acquire(address, path, self.core_id, self.engine.now)
            request.missed_l1 = True
        else:
            request = MemRequest(
                address=address,
                path=path,
                core_id=self.core_id,
                issue_time=self.engine.now,
            )
            request.missed_l1 = True
            self.recorder.maybe_trace(request)
        if path is _L1_HWPF:
            if self.lfb.full or self.lfb.outstanding(request.line) is not None:
                if pooled:
                    request.release()
                return  # hardware drops prefetches under pressure
            self.lfb.allocate(request)
            self._oro_all_rd.inc(self.engine.now)
            self._access_l2(request, self._l1pf_done)
        else:
            if self.l2.probe(address) is not None or request.line in self._l2_pf_pending:
                if pooled:
                    request.release()
                return  # already present or in flight; hardware drops the dup
            self._l2_pf_pending.add(request.line)
            self._access_l2(request, self._l2pf_done)

    def _l1pf_done(self, req: MemRequest) -> None:
        self._fill_l1(req.address, _SHARED)
        self._oro_all_rd.dec(self.engine.now)
        self.lfb.fill(req.line)
        if self.recorder is None:
            req.release()

    def _l2pf_done(self, req: MemRequest) -> None:
        self._l2_pf_pending.discard(req.line)
        if self.recorder is None:
            req.release()

    def _issue_swpf(self, address: int) -> None:
        self.pmu.add(self.scope, "sw_prefetch_access.any")
        if self.l1d.probe(address) is not None:
            return
        pooled = self.recorder is None
        if pooled:
            request = MemRequest.acquire(
                address, _SWPF, self.core_id, self.engine.now
            )
            request.missed_l1 = True
        else:
            request = MemRequest(
                address=address,
                path=_SWPF,
                core_id=self.core_id,
                issue_time=self.engine.now,
            )
            request.missed_l1 = True
            self.recorder.maybe_trace(request)
        if self.lfb.full or self.lfb.outstanding(request.line) is not None:
            if pooled:
                request.release()
            return

        self.lfb.allocate(request)
        self._access_l2(request, self._swpf_done)

    def _swpf_done(self, req: MemRequest) -> None:
        self._fill_l1(req.address, _SHARED)
        self.lfb.fill(req.line)
        if self.recorder is None:
            req.release()

    # -- PMU sync -----------------------------------------------------------

    def _sync(self, now: float) -> None:
        self.sb.sync(now)
        self.lfb.sync(now)
        for integ in (
            self._oro_demand_rd,
            self._oro_all_rd,
            self._l1_miss_out,
            self._l2_miss_out,
            self._l3_miss_out,
        ):
            integ.sync(now)
        s = self.scope
        self.pmu.set(s, "sb.occupancy", self.sb.stats.occupancy_integral)
        self.pmu.set(s, "sb.inserts", float(self.sb.allocations))
        self.pmu.set(s, "lfb.occupancy", self.lfb.stats.occupancy_integral)
        self.pmu.set(s, "lfb.inserts", float(self.lfb.allocations))
        self.pmu.set(s, "ORO.demand_data_rd", self._oro_demand_rd.integral)
        self.pmu.set(
            s, "ORO.cycles_with_demand_data_rd", self._oro_demand_rd.active_cycles
        )
        self.pmu.set(s, "ORO.data_rd", self._oro_all_rd.integral)
        self.pmu.set(s, "ORO.cycles_with_data_rd", self._oro_all_rd.active_cycles)
        self.pmu.set(s, "cycle_activity.cycles_l1d_miss", self._l1_miss_out.active_cycles)
        self.pmu.set(s, "cycle_activity.cycles_l2_miss", self._l2_miss_out.active_cycles)
        self.pmu.set(s, "cycle_activity.cycles_l3_miss_out", self._l3_miss_out.active_cycles)
        self.pmu.set(s, "ORO.l3_miss_demand_data_rd", self._l3_miss_out.integral)
        self.pmu.set(s, "cpu_clk_unhalted", now)
        self.pmu.set(s, "app.ops_completed", float(self.ops_completed))
