#!/usr/bin/env python3
"""PathFinder end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload app-matrix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced and a traced phase and reports the
per-layer metrics, the tracing overhead and a "where time went" table
(spans are also written to ``.perfbench/out/``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check exits 1.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: End-to-end metrics (tracing off) and their units, for every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "sim_events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "fraction",
    "cold_p50_ms": "ms",
    "repeat_p50_ms": "ms",
    "truth_agree_ratio": "fraction",
    "calib_latency_err": "fraction",
    "verdict_match": "match",
    "warp_cycles_err": "fraction",
}

STAGE_SHARES = ("sim.core", "sim.cache", "sim.cha", "sim.queues", "sim.imc",
                "sim.flexbus", "sim.cxl_device", "sim.fabric", "sim.engine",
                "sim.request", "pmu.registry")

#: Per-layer metrics (traced run) and their units, for every workload; a
#: layer a workload does not pass through reads 0.
PER_LAYER = {
    "workloads.gen_s": "s",
    "sim.engine.events": "count",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    **{f"{stage}.share": "fraction" for stage in STAGE_SHARES},
    "model.llc.misses": "count",
    "model.cha.tor_occupancy": "count",
    "model.imc.rpq_occupancy": "count",
    "model.m2pcie.inserts": "count",
    "model.fabric.fwd": "count",
    "model.fabric.retry": "count",
    "sim.warp.warps": "count",
    "sim.warp.aborts": "count",
    "sim.warp.epochs_skipped": "epochs",
    "sim.warp.exact_epochs": "epochs",
    "sim.warp.s": "s",
    "core.snapshot.s": "s",
    "core.epochs": "count",
    "core.builder.s": "s",
    "core.estimator.s": "s",
    "core.analyzer.s": "s",
    "core.materializer.s": "s",
    "tsdb.inserts": "count",
    "core.persistence.encode_s": "s",
    "core.persistence.decode_s": "s",
    "core.persistence.doc_kib": "KiB",
    "exec.cache.get_s": "s",
    "exec.cache.put_s": "s",
    "exec.cache.hits": "count",
    "exec.cache.misses": "count",
    "exec.pool.run_job_s": "s",
    "exec.pool.overhead_ms": "ms",
    "exec.pool.spawned": "count",
    "exec.pool.spawn_failures": "count",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.job_ms": "ms",
    "serve.result_ms": "ms",
    "serve.jobs_per_s": "jobs/s",
    "durable.journal.appends": "count",
    "durable.journal.bytes": "bytes",
    "trace.overhead_s": "s",
}


def _panel_metrics(refs: Dict[str, Any]) -> Dict[str, float]:
    panel = refs["panel"]
    return {key: panel[key] for key in ("truth_agree_ratio", "calib_latency_err",
                                        "verdict_match", "warp_cycles_err")}


def _tail_line(label: str, latencies_s: List[float]) -> str:
    found = harness.tail(latencies_s)
    if found is None:
        return f"  {label}: tail needs > 10 samples (have {len(latencies_s)})"
    pct, value, n = found
    return f"  {label}: p{pct:.1f} = {value * 1000:.2f} ms over {n} samples"


# -- end-to-end -----------------------------------------------------------------


def inprocess_e2e(outcome: Dict[str, Any]) -> Dict[str, float]:
    """Timings of the run's fastest pass.

    Interference from other tenants of a shared host only ever adds time,
    and it swings single passes by a quarter; the best of several passes
    is what the code itself costs.
    """
    best = min(outcome["passes"], key=lambda p: p.wall_s)
    ok = [op for op in best.ops if op.ok]
    latency_ms = 1000.0 * harness.geomean([op.latency_s for op in ok])
    return {
        "setup_s": outcome["setup_s"],
        "wall_s": best.wall_s,
        "sim_cycles_per_s": harness.geomean([op.cycles / op.latency_s for op in ok]),
        "sim_events_per_s": harness.geomean([op.events / op.latency_s for op in ok]),
        "peak_rss_mb": outcome["peak_rss_mb"],
        "cold_p50_ms": latency_ms,
        # The cache is bypassed: a repeated spec is simulated again.
        "repeat_p50_ms": latency_ms,
    }


def serve_e2e(outcome: Dict[str, Any]) -> Dict[str, float]:
    passes = outcome["passes"]
    rates_c, rates_e = [], []
    for p in passes:
        cold = [op for op in p.ops if op.ok and op.kind == "cold"
                and op.job_wall_s > 0]
        rates_c.append(harness.geomean([op.cycles / op.job_wall_s for op in cold]))
        rates_e.append(harness.geomean([op.events / op.job_wall_s for op in cold]))
    ops = [op for p in passes for op in p.ops if op.ok]
    return {
        "setup_s": outcome["setup_s"],
        "wall_s": harness.median([p.wall_s for p in passes]),
        "sim_cycles_per_s": harness.median(rates_c),
        "sim_events_per_s": harness.median(rates_e),
        "peak_rss_mb": outcome["peak_rss_mb"],
        "cold_p50_ms": 1000.0 * harness.median(
            [op.latency_s for op in ops if op.kind == "cold"]),
        "repeat_p50_ms": 1000.0 * harness.median(
            [op.latency_s for op in ops if op.kind == "hit"]),
    }


def report_inprocess(outcome: Dict[str, Any]) -> None:
    by_tag: Dict[str, List] = {}
    for p in outcome["passes"]:
        for op in p.ops:
            by_tag.setdefault(op.tag, []).append(op)
    print(f"{len(outcome['passes'])} passes; per session (median latency, "
          f"sim cycles, counter digest):")
    for tag, ops in by_tag.items():
        ok = [op for op in ops if op.ok]
        if not ok:
            print(f"  {tag:<22} FAILED: {ops[0].error}")
            continue
        extra = ""
        if "latency_ns" in ok[0].info:
            extra = f"  idle latency {ok[0].info['latency_ns']:.1f} ns"
        if ok[0].info.get("component"):
            extra = (f"  {ok[0].info['component']} / {ok[0].info['verdict']}"
                     f", {ok[0].info['warps']} warps")
        print(f"  {tag:<22}{harness.median([o.latency_s for o in ok]) * 1000:10.1f} ms"
              f"{ok[0].cycles:12.0f} cyc  {ok[0].digest}{extra}")
    print(_tail_line("session latency tail",
                     [op.latency_s for p in outcome["passes"] for op in p.ops
                      if op.ok]))


def report_serve(outcome: Dict[str, Any]) -> None:
    ops = [op for p in outcome["passes"] for op in p.ops if op.ok]
    jobs = sum(len(p.ops) for p in outcome["passes"])
    window = sum(p.wall_s for p in outcome["passes"])
    print(f"{len(outcome['passes'])} passes, {jobs} jobs, "
          f"{jobs / window:.2f} jobs/s")
    for kind in ("cold", "hit"):
        lat = [op.latency_s for op in ops if op.kind == kind]
        print(f"  {kind:<5} p50 {harness.median(lat) * 1000:8.2f} ms "
              f"({len(lat)} jobs)")
        print(_tail_line(f"{kind} tail", lat))


# -- per-layer --------------------------------------------------------------------


def _per_pass_sum(passes, fn) -> float:
    return harness.median([sum(fn(op) for op in p.ops if op.ok) for p in passes])


def inprocess_layers(outcome: Dict[str, Any]) -> Dict[str, float]:
    tracer = outcome["tracer"]
    traced, plain = outcome["traced"], outcome["plain"]
    rows = tracer.by_name()
    n = len(traced)

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0) / n

    out = dict.fromkeys(PER_LAYER, 0.0)
    events = _per_pass_sum(traced, lambda op: op.events)
    run_s = self_s("sim.run")
    doc_bytes = tracer.samples.get("doc_bytes", [])
    out.update({
        "workloads.gen_s": rows.get("workloads.gen", {}).get("total_s", 0.0),
        "sim.engine.events": events,
        "sim.run_s": run_s,
        "sim.ns_per_event": 1e9 * run_s / events if events else 0.0,
        "sim.warp.s": self_s("sim.warp"),
        "core.snapshot.s": self_s("core.snapshot"),
        "core.epochs": _per_pass_sum(traced, lambda op: op.epochs),
        "core.builder.s": self_s("core.builder"),
        "core.estimator.s": self_s("core.estimator"),
        "core.analyzer.s": self_s("core.analyzer"),
        "core.materializer.s": self_s("core.materializer"),
        "tsdb.inserts": tracer.counts.get("tsdb.inserts", 0) / n,
        "core.persistence.encode_s": self_s("core.persistence.encode"),
        "core.persistence.decode_s": self_s("core.persistence.decode"),
        "core.persistence.doc_kib": harness.median(doc_bytes) / 1024.0,
        "exec.cache.get_s": self_s("exec.cache.get"),
        "exec.cache.put_s": self_s("exec.cache.put"),
        "trace.overhead_s": (harness.median([p.wall_s for p in traced])
                             - harness.median([p.wall_s for p in plain])),
    })
    for stage, share in outcome["shares"].items():
        out[f"{stage}.share"] = share
    for key in ("model.llc.misses", "model.cha.tor_occupancy",
                "model.imc.rpq_occupancy", "model.m2pcie.inserts",
                "model.fabric.fwd", "model.fabric.retry"):
        out[key] = _per_pass_sum(traced, lambda op, k=key: op.info.get(k, 0.0))
    for key, info in (("sim.warp.warps", "warps"), ("sim.warp.aborts", "aborts"),
                      ("sim.warp.epochs_skipped", "epochs_skipped"),
                      ("sim.warp.exact_epochs", "exact_epochs")):
        out[key] = _per_pass_sum(traced, lambda op, k=info: op.info.get(k, 0))
    return out


def _span_durations(tracer, name: str) -> List[float]:
    return [end - start for n, start, end, _ in tracer.spans
            if n == name and end is not None]


def serve_layers(outcome: Dict[str, Any]) -> Dict[str, float]:
    tracer, metrics = outcome["tracer"], outcome["metrics"]
    traced, plain = outcome["traced"], outcome["plain"]
    n = len(traced)
    rows, samples = outcome["daemon_rows"], outcome["daemon_samples"]
    counters = metrics.get("counters", {})

    def per_pass(section: str, key: str) -> float:
        """A daemon total's growth over the traced passes, per pass."""
        final = metrics.get(section) or {}
        before = outcome["baseline"].get(section) or {}
        return (final.get(key, 0) - before.get(key, 0)) / n

    cold = [op for p in traced for op in p.ops if op.ok and op.kind == "cold"]
    statuses = [op.status for op in cold if op.status.get("started_at")]
    events = _per_pass_sum(traced, lambda op: op.events)
    run_s = (sum(samples.get("worker_exec_s", []))
             - sum(samples.get("worker_encode_s", []))) / n
    jobs = sum(len(p.ops) for p in plain)

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0) / n

    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({
        "sim.engine.events": events,
        "sim.run_s": run_s,
        "sim.ns_per_event": 1e9 * run_s / events if events else 0.0,
        "core.epochs": harness.median(
            [sum(o.status.get("num_epochs", 0) for o in p.ops
                 if o.ok and o.kind == "cold") for p in traced]),
        "core.persistence.encode_s": sum(samples.get("worker_encode_s", [])) / n,
        "core.persistence.doc_kib": harness.median(samples.get("doc_bytes", [])) / 1024.0,
        "exec.cache.get_s": self_s("exec.cache.get"),
        "exec.cache.put_s": self_s("exec.cache.put"),
        "exec.cache.hits": per_pass("cache", "hits"),
        "exec.cache.misses": per_pass("cache", "misses"),
        "exec.pool.run_job_s": rows.get("exec.pool.run_job", {}).get("total_s", 0.0) / n,
        "exec.pool.overhead_ms": 1000.0 * harness.median(samples.get("pool_overhead_s", [])),
        "exec.pool.spawned": per_pass("counters", "pool_spawned"),
        # Lifetime total, warm-up included: any failure is one too many.
        "exec.pool.spawn_failures": float(counters.get("pool_spawn_failure", 0)),
        "serve.submit_ms": 1000.0 * harness.median(_span_durations(tracer, "serve.submit")),
        "serve.result_ms": 1000.0 * harness.median(_span_durations(tracer, "serve.result")),
        "serve.queue_wait_ms": 1000.0 * harness.median(
            [s["started_at"] - s["submitted_at"] for s in statuses]),
        "serve.job_ms": 1000.0 * harness.median(
            [s["finished_at"] - s["started_at"] for s in statuses]),
        "serve.jobs_per_s": jobs / sum(p.wall_s for p in plain),
        "durable.journal.appends": per_pass("journal", "appended"),
        "durable.journal.bytes": per_pass("journal", "total_bytes"),
        "trace.overhead_s": (harness.median([p.wall_s for p in traced])
                             - harness.median([p.wall_s for p in plain])),
    })
    return out


# -- main ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("app-matrix", "pooled-contention", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args()
    harness.require_source()

    import inproc
    import serve_mixed
    import specs
    import tracer as tracing

    workloads = {"app-matrix": inproc.AppMatrix,
                 "pooled-contention": inproc.PooledContention,
                 "serve-mixed": serve_mixed.ServeMixed}
    workload = workloads[args.workload](args.seed, specs.SCALES[args.scale],
                                        args.scale)
    serve = args.workload == "serve-mixed"
    if args.trace:
        outcome = workload.trace(args.seconds)
        values = serve_layers(outcome) if serve else inprocess_layers(outcome)
        units = PER_LAYER
        rows = outcome["tracer"].by_name()
        wall = sum(p.wall_s for p in outcome["traced"])
        if serve:
            # Two client threads and two daemon worker threads: shares are
            # of the thread-seconds the traced passes had available.
            wall *= serve_mixed.CLIENTS
            print(tracing.where_time_went(rows, wall, "serve-mixed clients"))
            print(tracing.where_time_went(outcome["daemon_rows"], wall,
                                          "serve daemon"))
        else:
            print(tracing.where_time_went(rows, wall, args.workload))
        print(f"tracing overhead: {values['trace.overhead_s']:+.4f} s per pass")
        tracing.write_document(
            harness.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "metrics": values,
             "bench": outcome["tracer"].to_document(),
             "daemon": outcome.get("daemon", {}).get("trace")})
    else:
        outcome = workload.measure(args.seconds)
        if serve:
            values = serve_e2e(outcome)
            report_serve(outcome)
        else:
            values = inprocess_e2e(outcome)
            report_inprocess(outcome)
        values.update(_panel_metrics(outcome["refs"]))
        values["ok_ratio"] = (outcome["attempted"] - outcome["failed"]) \
            / outcome["attempted"]
        if not values["verdict_match"]:
            outcome["failures"].append("accuracy panel: adaptive diagnosis "
                                       "differs from exact fidelity")
        units = END_TO_END
    for failure in outcome["failures"]:
        print(f"CHECK FAILED: {failure}")
    correct = not outcome["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
