"""References the correctness checks and accuracy metrics compare against.

* The **accuracy panel** fixes its inputs (``specs.PANEL_SEED`` and the
  section 2.3 probes), so its four metrics are a property of the code,
  not of the run's seed: flight-recorder ground truth vs PFAnalyzer over
  the app matrix, probe idle latency vs the paper, and the adaptive
  pooled session vs its exact-fidelity twin.
* The **pooled exact reference** is the exact-fidelity diagnosis of one
  seed's contention session, which the adaptive session must match.
* The **recorded digests** (``digests.json``) are app-matrix counter
  digests per seed: a change that only makes the simulator faster must
  reproduce them bit for bit.

Panel and exact references are computed in a child process outside any
timed phase and stored under ``.perfbench/cache`` keyed on the code hash.

    python3 perfbench/reference.py digests --seeds 0-31   # re-record
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

import harness

DIGESTS = harness.BENCH_DIR / "digests.json"


def _cached(kind: str, scale_name: str, seed: Optional[int] = None) -> Dict[str, Any]:
    suffix = "" if seed is None else f"-{seed}"
    path = harness.CACHE_DIR / f"{kind}-{scale_name}{suffix}-{harness.code_hash()}.json"
    if not path.is_file():
        cmd = [sys.executable, str(Path(__file__).resolve()), kind,
               "--scale", scale_name, "--out", str(path)]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        subprocess.run(cmd, check=True, timeout=900, stdout=sys.stderr,
                       cwd=str(harness.ROOT))
    return json.loads(path.read_text())


def cached_panel(scale_name: str) -> Dict[str, Any]:
    return _cached("panel", scale_name)


def cached_pooled_exact(scale_name: str, seed: int) -> Dict[str, Any]:
    return _cached("pooled-exact", scale_name, seed)


def recorded_digests(scale_name: str, seed: int) -> Dict[str, str]:
    """The committed app-matrix digests for ``seed`` ({} if unrecorded)."""
    if scale_name != "full" or not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())["seeds"].get(str(seed), {})


# -- computing references (child process) ------------------------------------


def _completed(op_result):
    op, result = op_result
    if result is None:
        raise RuntimeError(f"{op.tag}: {op.error}")
    return op, result


def compute_panel(scale) -> Dict[str, Any]:
    from repro import api
    from repro.core.spec import TraceSpec
    from repro.obs.validation import validate_against_analyzer

    import inproc
    import specs

    truth = {}
    for tag, spec, config in specs.matrix_cells(specs.PANEL_SEED, scale):
        _, result = _completed(inproc.run_campaign_cell(
            tag, spec, config, trace=TraceSpec()))
        report = validate_against_analyzer(
            result.trace, [e.queues for e in result.epochs])
        truth[tag] = {"measured": report.measured_top,
                      "estimated": report.estimated_top,
                      "agrees": report.agrees}
    # Untraced counter digests of the panel seed's app-matrix pass: every
    # app-matrix run compares them with digests.json, whatever its seed.
    digests = {tag: _completed(inproc.run_campaign_cell(tag, spec, config))[0].digest
               for tag, spec, config in specs.matrix_cells(specs.PANEL_SEED, scale)}
    probe_ns = {}
    for tag, spec, config in specs.probe_cells(scale):
        node = tag.split("@", 1)[1]
        op, result = _completed(inproc.run_campaign_cell(tag, spec, config))
        digests[tag] = op.digest
        probe_ns[node] = specs.probe_latency_ns(node, api.counters(result),
                                                config)
    errors = [abs(ns - specs.PAPER_IDLE_NS[node]) / specs.PAPER_IDLE_NS[node]
              for node, ns in probe_ns.items()]
    exact = compute_pooled_exact(specs.PANEL_SEED, scale)["sessions"]
    pooled, errors_cycles, matches = {}, [], 0
    for tag, spec, config in specs.pooled_cells(specs.PANEL_SEED, scale):
        op, _ = _completed(inproc.run_machine_session(
            tag, spec, config, fidelity="adaptive", live=True))
        pooled[tag] = {"exact": exact[tag], "adaptive": _diagnosis(op)}
        matches += (op.info["component"], op.info["verdict"]) == \
            (exact[tag]["component"], exact[tag]["verdict"])
        errors_cycles.append(abs(op.cycles - exact[tag]["cycles"])
                             / exact[tag]["cycles"])
    return {
        "seed": specs.PANEL_SEED,
        "digests": digests,
        "truth": truth,
        "truth_agree_ratio": sum(r["agrees"] for r in truth.values()) / len(truth),
        "probe_ns": probe_ns,
        "calib_latency_err": max(errors),
        "pooled": pooled,
        "verdict_match": 1.0 if matches == len(pooled) else 0.0,
        "warp_cycles_err": sum(errors_cycles) / len(errors_cycles),
    }


def _diagnosis(op) -> Dict[str, Any]:
    return {"cycles": op.cycles, "epochs": op.epochs,
            "component": op.info["component"], "verdict": op.info["verdict"]}


def compute_pooled_exact(seed: int, scale) -> Dict[str, Any]:
    """Exact-fidelity diagnoses of every contention input of ``seed``."""
    import inproc
    import specs

    sessions = {}
    for tag, spec, config in specs.pooled_cells(seed, scale):
        op, _ = _completed(inproc.run_machine_session(
            tag, spec, config, fidelity="exact", live=False))
        sessions[tag] = _diagnosis(op)
    return {"seed": seed, "sessions": sessions}


def record_digests(seeds, scale) -> Dict[str, Any]:
    import inproc
    import specs

    table = {}
    for seed in seeds:
        cells = specs.matrix_cells(seed, scale) + specs.probe_cells(scale)
        table[str(seed)] = {
            tag: _completed(inproc.run_campaign_cell(tag, spec, config))[0].digest
            for tag, spec, config in cells
        }
        print(f"seed {seed}: {table[str(seed)]}", file=sys.stderr)
    return {"matrix_ops": scale.matrix_ops, "probe_ops": scale.probe_ops,
            "seeds": table}


def _seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    harness.require_source()
    import specs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("panel", "pooled-exact", "digests"))
    parser.add_argument("--scale", default="full", choices=sorted(specs.SCALES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default="0-31",
                        help="seed range for 'digests', e.g. 0-31")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    scale = specs.SCALES[args.scale]
    if args.kind == "panel":
        document = compute_panel(scale)
    elif args.kind == "pooled-exact":
        document = compute_pooled_exact(args.seed, scale)
    else:
        document = record_digests(_seed_range(args.seeds), specs.SCALES["full"])
    out = Path(args.out) if args.out else DIGESTS
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    tmp.replace(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
