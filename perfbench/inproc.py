"""The in-process workloads: ``app-matrix`` and ``pooled-contention``.

Both time sequential ``repro.api`` sessions in this process.  One *pass*
builds the workload's specs from the seed and runs every session once;
the timed phase repeats passes for the requested seconds and reports
medians over passes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import RunOptions, api
from repro.sim import Machine

import harness
import reference
import specs
import tracer as tracing

#: Counter totals summed into the ``model.*`` per-layer metrics.
MODEL_EVENTS = {
    "model.llc.misses": "llc_lookup.misses",
    "model.cha.tor_occupancy": "unc_cha_tor_occupancy.ia.total",
    "model.imc.rpq_occupancy": "unc_m_rpq_occupancy",
    "model.m2pcie.inserts": "unc_m2p_rxc_inserts.all",
    "model.fabric.fwd": "unc_cxlsw_fwd",
    "model.fabric.retry": "unc_cxlsw_retry",
}


def counter_digest(totals: Dict[Tuple[str, str], float]) -> str:
    """Order-stable sha256 of a session's total counters."""
    payload = json.dumps(sorted((scope, event, repr(value))
                                for (scope, event), value in totals.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def verdict_of(result) -> Dict[str, Optional[str]]:
    """The session's diagnosis: top-1 culprit component + fabric verdict."""
    queues = result.final.queues
    culprit = queues.culprit()
    diagnosis = queues.fabric_diagnosis()
    return {
        "component": culprit.component if culprit else None,
        "verdict": diagnosis.verdict if diagnosis else None,
    }


@dataclass
class Op:
    """One session: its latency and what the checks and metrics need."""

    tag: str
    latency_s: float
    ok: bool = True
    error: str = ""
    cycles: float = 0.0
    events: int = 0
    epochs: int = 0
    digest: str = ""
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Pass:
    wall_s: float
    ops: List[Op]


def _failed(tag: str, began: float, exc: BaseException) -> Op:
    return Op(tag, time.perf_counter() - began, ok=False,
              error=f"{type(exc).__name__}: {exc}")


def workload_cycles(result) -> float:
    """Simulated cycles until the last flow ended (the session's own
    ``total_cycles`` is rounded up to an epoch boundary)."""
    ends = [f.ended_at for f in result.flows if f.ended_at is not None]
    return max(ends) if ends else result.total_cycles


def _model_totals(totals) -> Dict[str, float]:
    """Sum each model event over its scopes and per-port suffixes."""
    return {
        metric: sum(v for (_, e), v in totals.items()
                    if e == event or e.startswith(event + "."))
        for metric, event in MODEL_EVENTS.items()
    }


def run_campaign_cell(tag: str, spec, config, trace=None,
                      tracer=tracing.NULL) -> Tuple[Op, Any]:
    """One exact ``api`` session through the campaign path, cache off.

    ``api.run_many`` with one serial job is ``api.run``'s own path, and
    its campaign record carries the engine's ``events_executed``.
    """
    options = RunOptions(cache=False, retries=0, trace=trace)
    began = time.perf_counter()
    try:
        with tracer.span("session"):
            campaign = api.run_many([spec], config=config, parallel=False,
                                    options=options)
    except Exception as exc:  # noqa: BLE001 - a failed session is counted
        return _failed(tag, began, exc), None
    latency = time.perf_counter() - began
    record = campaign.jobs[0]
    if not record.ok:
        return Op(tag, latency, ok=False,
                  error=f"{record.failure}: {record.error}"), None
    result = campaign.results[0]
    totals = api.counters(result)
    op = Op(tag, latency, cycles=workload_cycles(result),
            events=record.events_executed, epochs=result.num_epochs,
            digest=counter_digest(totals), info=_model_totals(totals))
    return op, result


def run_machine_session(tag: str, spec, config, fidelity: str, live: bool,
                        tracer=tracing.NULL) -> Tuple[Op, Any]:
    """One session on an explicit machine (the live/in-process path)."""
    began = time.perf_counter()
    try:
        with tracer.span("session"):
            machine = Machine(config)
            result = api.run(spec, machine=machine,
                             options=RunOptions(live=live or None,
                                                fidelity=fidelity))
    except Exception as exc:  # noqa: BLE001 - a failed session is counted
        return _failed(tag, began, exc), None
    latency = time.perf_counter() - began
    totals = api.counters(result)
    warp = result.warp
    info = _model_totals(totals)
    info.update(verdict_of(result))
    info.update({
        "warps": len(warp.events) if warp else 0,
        "aborts": warp.aborted if warp else 0,
        "epochs_skipped": warp.epochs_skipped if warp else 0.0,
        "exact_epochs": sum(1 for e in result.epochs if not e.snapshot.warped),
    })
    op = Op(tag, latency, cycles=workload_cycles(result),
            events=machine.engine.events_executed, epochs=result.num_epochs,
            digest=counter_digest(totals), info=info)
    return op, result


# -- the two workloads --------------------------------------------------------


class InProcessWorkload:
    """Shared by both: set-up timing, timed passes, traced passes."""

    name = ""

    def __init__(self, seed: int, scale: specs.Scale, scale_name: str) -> None:
        self.seed = seed
        self.scale = scale
        self.scale_name = scale_name
        self.tracer = tracing.NULL

    # Subclasses provide these.
    def sessions(self) -> List[specs.Cell]:
        raise NotImplementedError

    def run_session(self, tag, spec, config) -> Op:
        raise NotImplementedError

    def lookup_references(self) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, passes: List[Pass], refs: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    # -- phases ------------------------------------------------------------

    def run_pass(self, _index: int = 0) -> Pass:
        began = time.perf_counter()
        ops = [self.run_session(tag, spec, config)
               for tag, spec, config in self.sessions()]
        return Pass(time.perf_counter() - began, ops)

    def setup_once(self) -> float:
        """Cold import, input + machine build, reference lookup."""
        began = time.perf_counter()
        harness.cold_import_s()
        for _, _, config in self.sessions():
            Machine(config)
        self.lookup_references()
        return time.perf_counter() - began

    def _outcome(self, passes: List[Pass], refs) -> Dict[str, Any]:
        ops = [op for p in passes for op in p.ops]
        failures = [f"{op.tag}: {op.error}" for op in ops if not op.ok]
        failures += self.check(passes, refs)
        return {"attempted": len(ops),
                "failed": sum(1 for op in ops if not op.ok),
                "failures": failures}

    def measure(self, seconds: float) -> Dict[str, Any]:
        refs = self.lookup_references()  # computed outside the timing
        setup = harness.median([self.setup_once()
                                for _ in range(self.scale.setup_repeats)])
        passes = harness.timed_passes(self.run_pass, seconds)
        return {"passes": passes, "setup_s": setup,
                "peak_rss_mb": harness.peak_rss_mb(), "refs": refs,
                **self._outcome(passes, refs)}

    def trace(self, seconds: float) -> Dict[str, Any]:
        refs = self.lookup_references()
        plain = harness.timed_passes(self.run_pass, seconds / 2)
        tracer = tracing.Tracer()
        tracing.instrument_inprocess(tracer)
        self.tracer = tracer
        try:
            with tracer.span("workloads.gen"):
                for _, spec, _ in self.sessions():
                    for app in spec.apps:
                        for _chunk in app.workload.ops_chunks():
                            pass
            traced = harness.timed_passes(self.run_pass, seconds / 2)
        finally:
            tracer.restore()
            self.tracer = tracing.NULL
        shares = tracing.stage_shares(self.run_pass)
        return {"plain": plain, "traced": traced, "tracer": tracer,
                "shares": shares, "refs": refs,
                **self._outcome(plain + traced, refs)}


class AppMatrix(InProcessWorkload):
    """Sequential exact sessions over the section 3 matrix + 2.3 probes."""

    name = "app-matrix"

    def sessions(self) -> List[specs.Cell]:
        return (specs.matrix_cells(self.seed, self.scale)
                + specs.probe_cells(self.scale))

    def run_session(self, tag, spec, config) -> Op:
        op, result = run_campaign_cell(tag, spec, config, tracer=self.tracer)
        if result is not None and tag.startswith("probe@"):
            node = tag.split("@", 1)[1]
            op.info["latency_ns"] = specs.probe_latency_ns(
                node, api.counters(result), config)
        return op

    def lookup_references(self) -> Dict[str, Any]:
        return {"panel": reference.cached_panel(self.scale_name),
                "digests": reference.recorded_digests(self.scale_name,
                                                      self.seed),
                "panel_digests": reference.recorded_digests(
                    self.scale_name, specs.PANEL_SEED)}

    def check(self, passes: List[Pass], refs: Dict[str, Any]) -> List[str]:
        """Bit parity: every pass, and the recorded digests, agree.

        The panel seed's digests are compared on every run, so the check
        holds on seeds ``digests.json`` does not record.
        """
        problems = []
        first: Dict[str, str] = {}
        for p in passes:
            for op in p.ops:
                if not op.ok:
                    continue
                seen = first.setdefault(op.tag, op.digest)
                if seen != op.digest:
                    problems.append(f"{op.tag}: counters differ between "
                                    f"passes ({seen} vs {op.digest})")
        if self.scale_name == "full" and not refs["panel_digests"]:
            problems.append(f"digests.json records no seed {specs.PANEL_SEED}")
        for seed, got, recorded in (
                (specs.PANEL_SEED, refs["panel"]["digests"], refs["panel_digests"]),
                (self.seed, first, refs["digests"])):
            for tag, digest in sorted(got.items()):
                if recorded and recorded.get(tag) != digest:
                    problems.append(
                        f"{tag}: counter digest {digest} differs from the "
                        f"recorded {recorded.get(tag)} for seed {seed}")
        return problems


class PooledContention(InProcessWorkload):
    """Adaptive, live, fabric-pooled contention sessions."""

    name = "pooled-contention"

    def sessions(self) -> List[specs.Cell]:
        return specs.pooled_cells(self.seed, self.scale)

    def run_session(self, tag, spec, config) -> Op:
        op, _ = run_machine_session(tag, spec, config, fidelity="adaptive",
                                    live=True, tracer=self.tracer)
        return op

    def lookup_references(self) -> Dict[str, Any]:
        return {"panel": reference.cached_panel(self.scale_name),
                "exact": reference.cached_pooled_exact(self.scale_name,
                                                       self.seed)}

    def check(self, passes: List[Pass], refs: Dict[str, Any]) -> List[str]:
        """Deterministic passes and the exact reference's verdict."""
        problems = []
        exact = refs["exact"]["sessions"]
        first: Dict[str, str] = {}
        for p in passes:
            for op in p.ops:
                if not op.ok:
                    continue
                seen = first.setdefault(op.tag, op.digest)
                if seen != op.digest:
                    problems.append(f"{op.tag}: counters differ between "
                                    f"passes ({seen} vs {op.digest})")
                got = (op.info["component"], op.info["verdict"])
                want = (exact[op.tag]["component"], exact[op.tag]["verdict"])
                if got != want:
                    problems.append(f"{op.tag}: adaptive diagnosis {got} != "
                                    f"exact reference {want}")
        return problems
