"""Spans and counts recorded from outside the program.

The benchmark measures each layer by wrapping the public functions it
calls into (``Machine.run``, ``SnapshotTaker.take``, ``PFAnalyzer.analyze``,
``ResultCache.get_entry``, ``WorkerPool.run_job``, ...) for the duration of
a traced phase; nothing under ``src/`` changes.  Untraced phases use
:data:`NULL`, whose spans cost one no-op context manager.

A span's *self* time is its duration minus the time its direct child
spans (same thread, nested inside it) cover.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import os
import pstats
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """In-memory span log with per-thread nesting."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent_index]
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), None, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- wrapping the program's functions --------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[Any, float], None]] = None) -> None:
        """Replace ``owner.attr`` by a spanned call until :meth:`restore`.

        ``after(result, seconds)`` runs once the span has closed, so its
        own cost never lands inside the measured layer.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            began = time.perf_counter()
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, time.perf_counter() - began)
            return result

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "Tracer":
        """A tracer holding what :meth:`to_document` wrote."""
        tracer = cls()
        tracer.spans = [list(s) for s in document.get("spans", [])]
        tracer.counts.update(document.get("counts", {}))
        tracer.samples.update(document.get("samples", {}))
        return tracer

    def by_name(self, since: float = float("-inf")) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over closed spans that
        started at or after ``since`` (a ``time.perf_counter()`` value)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is not None and parent is not None:
                child_time[parent] += end - start
        rows: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None or start < since:
                continue
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
        return rows

    def to_document(self) -> Dict[str, Any]:
        return {
            # Open spans (end None) stay, so parent indexes stay valid.
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "samples": dict(self.samples),
        }


class _NullTracer:
    """Tracing off: spans are a shared no-op context manager."""

    enabled = False
    _noop = contextlib.nullcontext()

    def span(self, name: str):
        return self._noop

    def sample(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()


def where_time_went(rows: Dict[str, Dict[str, float]], wall_s: float,
                    title: str) -> str:
    """A table of spans by self time, as a share of the traced wall time."""
    lines = [f"where time went: {title} (self % of {wall_s:.3f} s traced)",
             f"  {'span':<28}{'calls':>8}{'total s':>11}{'self s':>11}"
             f"{'self %':>8}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(f"  {name:<28}{row['calls']:>8d}{row['total_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{share:>7.1f}%")
    return "\n".join(lines)


def write_document(path: Path, document: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document))
    os.replace(tmp, path)


# -- instrumentation sets -------------------------------------------------------


def instrument_inprocess(tracer: Tracer) -> None:
    """Spans on every layer an in-process ``api.run`` passes through."""
    from repro.core.analyzer import PFAnalyzer
    from repro.core.builder import PFBuilder
    from repro.core.estimator import PFEstimator
    from repro.core.materializer import PFMaterializer
    from repro.core.snapshot import SnapshotTaker
    from repro.exec import runner
    from repro.exec.cache import ResultCache
    from repro.live.materializer import LiveMaterializer
    from repro.sim.machine import Machine
    from repro.sim.warp import WarpController
    from repro.tsdb.database import TimeSeriesDB

    def document_size(document, _seconds):
        tracer.sample("doc_bytes", float(len(json.dumps(document))))

    tracer.wrap(Machine, "run", "sim.run")
    tracer.wrap(SnapshotTaker, "take", "core.snapshot")
    tracer.wrap(SnapshotTaker, "take_extrapolated", "core.snapshot")
    tracer.wrap(PFBuilder, "build", "core.builder")
    tracer.wrap(PFEstimator, "breakdown", "core.estimator")
    tracer.wrap(PFAnalyzer, "analyze", "core.analyzer")
    tracer.wrap(PFMaterializer, "ingest", "core.materializer")
    tracer.wrap(LiveMaterializer, "ingest", "core.materializer")
    tracer.wrap(WarpController, "observe", "sim.warp")
    tracer.wrap(WarpController, "attempt", "sim.warp")
    # The names the campaign runner binds: in-process api.run round-trips
    # every result through a session document.
    tracer.wrap(runner, "result_to_document", "core.persistence.encode",
                after=document_size)
    tracer.wrap(runner, "result_from_document", "core.persistence.decode")
    tracer.wrap(ResultCache, "get_entry", "exec.cache.get")
    tracer.wrap(ResultCache, "put_document", "exec.cache.put")
    tracer.count_calls(TimeSeriesDB, "insert", "tsdb.inserts")


# -- cProfile own time by module ---------------------------------------------

#: Simulator stages and the source files whose own time they own.
STAGE_FILES = {
    "sim.core": ("sim/core.py", "sim/store_buffer.py"),
    "sim.cache": ("sim/cache.py", "sim/lfb.py", "sim/prefetch.py"),
    "sim.cha": ("sim/cha.py", "sim/mesh.py", "sim/coherence.py",
                "sim/address.py"),
    "sim.queues": ("sim/queues.py",),
    "sim.imc": ("sim/imc.py", "sim/dram.py"),
    "sim.flexbus": ("sim/flexbus.py",),
    "sim.cxl_device": ("sim/cxl_device.py",),
    "sim.fabric": ("sim/fabric.py", "sim/cxl_switch.py"),
    "sim.engine": ("sim/engine.py",),
    "sim.request": ("sim/request.py",),
    "pmu.registry": ("pmu/registry.py",),
}


def stage_shares(fn: Callable[[], Any]) -> Dict[str, float]:
    """Run ``fn`` under cProfile; own time per stage as a share of all."""
    by_file = {}
    for stage, files in STAGE_FILES.items():
        for name in files:
            by_file[os.path.join("repro", *name.split("/"))] = stage
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    stats = pstats.Stats(profiler).stats
    own = Counter()
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        total += tottime
        for suffix, stage in by_file.items():
            if filename.endswith(suffix):
                own[stage] += tottime
                break
    return {stage: (own[stage] / total if total else 0.0)
            for stage in STAGE_FILES}
