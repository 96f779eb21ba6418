"""The paper's section 5 case studies, one function each.

Each ``caseN_*`` function builds the jobs of its figure's experiment,
runs them as one campaign through :func:`repro.api.run_many` with the
default result cache, and returns an :class:`Experiment`: the figure's
tables as data, plus the sessions they were computed from (by job tag)
for checks that read more than a table.  ``pathfinder case --id N``
prints the tables; the benches in ``benchmarks/`` assert the paper's
shapes on them and :func:`record` each one as ``results/<slug>.csv``.

``import repro`` does not import this module: it pulls in every
subsystem a case touches.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import api
from .core import (
    STALL_COMPONENTS,
    AppSpec,
    PFBuilder,
    PFMaterializer,
    PathMap,
    ProfileResult,
    ProfileSpec,
)
from .core.snapshot import Snapshot
from .exec import CampaignJob, congestion_ab_jobs, cxl_node_id, local_node_id
from .sim import Machine, MachineConfig, spr_config
from .tiering import TPP, TPPConfig
from .tsdb import pearsonr
from .workloads import (
    GUPS,
    MBW,
    HotColdAccess,
    InterleavedFlows,
    SequentialStream,
    Workload,
    ZipfAccess,
    build_app,
    throttled,
)

EPOCH = 25_000.0


# -- tables ------------------------------------------------------------------


@dataclass
class Table:
    """One figure or table of the evaluation, as data.

    ``rows`` hold raw values; cells are formatted only when the table is
    rendered or written.  A ``timing`` table holds wall-clock
    measurements, so it is written but never compared.
    """

    title: str
    header: List[str]
    rows: List[List[Any]]
    timing: bool = False

    @property
    def slug(self) -> str:
        return re.sub(r"[^a-z0-9]+", "_", self.title.lower()).strip("_")[:80]

    def column(self, name: str) -> List[Any]:
        index = self.header.index(name)
        return [row[index] for row in self.rows]

    def csv_text(self) -> str:
        """A ``# title`` line, then the header and the formatted cells."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow([f"# {self.title}"])
        writer.writerow(self.header)
        writer.writerows([_fmt(v) for v in row] for row in self.rows)
        return out.getvalue()

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max([len(h)] + [len(row[i]) for row in cells])
            for i, h in enumerate(self.header)
        ]
        lines = [f"=== {self.title} ===",
                 "  ".join(h.ljust(w) for h, w in zip(self.header, widths))]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
                  for row in cells]
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or 0 < abs(value) < 1e-2:
            return f"{value:.2e}"
        return f"{value:.2f}"
    return str(value)


def record(table: Table, directory: Path) -> Path:
    """Write ``table`` to ``directory/<slug>.csv`` and check it.

    A deterministic table must equal the CSV already there.  When it
    differs, or there is none, the new text is written anyway, so the
    change that moved the table can commit it, and AssertionError names
    the file.  A timing table is written and never compared.
    """
    path = Path(directory) / f"{table.slug}.csv"
    text = table.csv_text().encode()
    old = path.read_bytes() if path.exists() else None
    if old != text:
        path.write_bytes(text)
        if not table.timing:
            what = ("differs from the committed table" if old is not None
                    else "has no committed table")
            raise AssertionError(f"{path}: {what}; re-recorded it")
    return path


# -- running a case ----------------------------------------------------------


@dataclass
class Experiment:
    """A case study's tables, and the sessions behind them by job tag."""

    tables: Dict[str, Table]
    results: Dict[str, ProfileResult]


def run_jobs(jobs: Sequence[CampaignJob]) -> Dict[str, ProfileResult]:
    """Run ``jobs`` as one cached campaign; results by (unique) job tag.
    Every job must succeed."""
    campaign = api.run_many(jobs)
    for record_ in campaign.failed:
        raise RuntimeError(
            f"job {record_.tag!r} failed ({record_.failure}): {record_.error}"
        )
    return {record_.tag: result for record_, result in campaign}


def pinned_job(
    workload: Workload, node: str,
    config: Optional[MachineConfig] = None, tag: str = "",
) -> CampaignJob:
    """One workload on core 0, memory-bound to ``node`` ("local"/"cxl")."""
    config = config or spr_config(num_cores=2)
    node_id = cxl_node_id(config) if node == "cxl" else local_node_id(config)
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=node_id)],
        epoch_cycles=EPOCH,
    )
    return CampaignJob(spec=spec, config=config, tag=tag or workload.name)


def app_job(name: str, node: str, ops: int = 8000,
            config: Optional[MachineConfig] = None) -> CampaignJob:
    """A Table 6 catalog app, tagged ``name@node``."""
    return pinned_job(build_app(name, num_ops=ops, seed=1), node, config,
                      tag=f"{name}@{node}")


def runtime(result: ProfileResult) -> float:
    """When the session's last application finished."""
    return max((f.ended_at or result.total_cycles) for f in result.flows)


def stall_totals(result: ProfileResult, family: str = "DRd") -> Dict[str, float]:
    """PFEstimator's CXL-induced stall of one path, summed over epochs."""
    totals = {c: 0.0 for c in STALL_COMPONENTS}
    for e in result.epochs:
        for c, v in e.stalls.aggregate(family).items():
            totals[c] += v
    return totals


def _pct(load: float) -> str:
    return f"{int(load * 100)}%"


# -- case 1: Table 7 ---------------------------------------------------------


def merged_path_map(result: ProfileResult) -> PathMap:
    """PFBuilder over the whole session (the sum of its epochs)."""
    return PFBuilder().build(Snapshot(
        t_start=0.0, t_end=result.total_cycles,
        delta=api.counters(result), flows=result.flows,
    ))


def case1_path_classification() -> Experiment:
    """Case 1 (section 5.2, Table 7): PFBuilder path classification."""
    results = run_jobs([app_job("649.fotonik3d_s", "cxl", ops=10000),
                        app_job("602.gcc_s", "cxl", ops=12000)])
    pm = merged_path_map(results["649.fotonik3d_s@cxl"])
    uncore = {family: sum(pm.uncore[family].values())
              for family in ("DRd", "RFO", "HWPF")}
    total = sum(uncore.values())
    ranked = sorted(results["602.gcc_s@cxl"].epochs,
                    key=lambda e: e.path_map.total_core_requests())
    snapshots = [
        [name, e.path_map.total_core_requests()]
        + [e.path_map.uncore_hits(f, "CXL_memory")
           for f in ("DRd", "RFO", "HWPF")]
        for name, e in (("s1", ranked[0]), ("s2", ranked[-1]))
    ]
    return Experiment({
        "uncore": Table(
            "Table 7: uncore access share (fotonik3d)",
            ["family", "uncore hits", "share %"],
            [[f, v, 100 * v / total if total else 0]
             for f, v in uncore.items()],
        ),
        "gcc": Table(
            "Table 7: gcc snapshots (phase contrast)",
            ["snapshot", "core reqs", "CXL DRd", "CXL RFO", "CXL HWPF"],
            snapshots,
        ),
    }, results)


# -- case 2: Fig 6 -----------------------------------------------------------

FIG6_APPS = ("fft", "raytrace", "barnes", "freqmine", "bfs", "505.mcf_r")


def case2_stall_breakdown() -> Experiment:
    """Case 2 (section 5.3, Fig 6): PFEstimator stall breakdown."""
    results = run_jobs([app_job(app, "cxl") for app in FIG6_APPS])
    rows = []
    for app in FIG6_APPS:
        drd = stall_totals(results[f"{app}@cxl"])
        total = sum(drd.values())
        rows.append([app] + [100 * (drd[c] / total if total > 0 else 0.0)
                             for c in STALL_COMPONENTS])
    return Experiment({"shares": Table(
        "Fig 6 DRd CXL-induced stall shares (%)",
        ["app"] + list(STALL_COMPONENTS), rows,
    )}, results)


# -- case 3: Figs 7-8 --------------------------------------------------------

FIG7_LOADS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _install_mixed_regions(machine: Machine, spec: ProfileSpec) -> None:
    """Pre-place the mixed workload's two flows on their tiers; the spec's
    membind only covers the (empty) wrapper region."""
    mixed = spec.apps[0].workload
    mixed.primary.install(machine, machine.local_node.node_id)
    mixed.secondary.install(machine, machine.cxl_node.node_id)


def _mixed_job(cxl_load: float) -> CampaignJob:
    local = SequentialStream(
        name="localflow", num_ops=5000, working_set_bytes=1 << 21,
        read_ratio=0.8, gap=3.0, accesses_per_line=2, seed=3,
    )
    cxl = SequentialStream(
        name="cxlflow", num_ops=max(1, int(5000 * cxl_load)),
        working_set_bytes=1 << 21, read_ratio=0.8, gap=3.0,
        accesses_per_line=2, seed=17,
    )
    mixed = InterleavedFlows(local, cxl, secondary_fraction=cxl_load / 2.0)
    spec = ProfileSpec(apps=[AppSpec(workload=mixed, core=0, membind=0)],
                       epoch_cycles=EPOCH)
    return CampaignJob(spec=spec, config=spr_config(num_cores=2),
                       tag=f"mixed@{cxl_load:.1f}",
                       setup=_install_mixed_regions)


def case3_interference() -> Experiment:
    """Case 3 (section 5.4, Figs 7-8): local vs CXL mFlows on one core."""
    results = run_jobs([_mixed_job(load) for load in FIG7_LOADS])
    stalls, queues = [], []
    for load in FIG7_LOADS:
        result = results[f"mixed@{load:.1f}"]
        s = stall_totals(result)
        stalls.append([_pct(load), s["L1D"] + s["LFB"], s["L2"], s["LLC"],
                       s["FlexBus+MC"], s["CXL_DIMM"]])
        q = {"L1D": 0.0, "LFB": 0.0, "L2": 0.0, "FlexBus+MC": 0.0}
        for e in result.epochs:
            for component in q:
                q[component] += e.queues.queue(component, "DRd")
        epochs = max(1, len(result.epochs))
        queues.append([_pct(load)] + [v / epochs for v in q.values()])
    return Experiment({
        "fig7": Table(
            "Fig 7 CXL-induced DRd stall vs CXL load",
            ["load", "L1D+LFB", "L2", "LLC", "FlexBus+MC", "CXL_DIMM"],
            stalls,
        ),
        "fig8": Table(
            "Fig 8 estimated queue length vs CXL load (DRd)",
            ["load", "L1D", "LFB", "L2", "FlexBus+MC"], queues,
        ),
    }, results)


# -- case 4: Figs 9-10 -------------------------------------------------------

# load 0.0 = solo YCSB baseline (the reference the paper's -77.4% uses).
FIG9_LOADS = (0.0, 0.2, 0.6, 1.0)
FIG9_NEIGHBOURS = 7
FIG9_YCSB_OPS = 4000


def _contention_job(load: float) -> CampaignJob:
    config = spr_config(num_cores=FIG9_NEIGHBOURS + 1)
    cxl = cxl_node_id(config)
    ycsb = ZipfAccess(
        name="ycsb", num_ops=FIG9_YCSB_OPS, working_set_bytes=1 << 23,
        read_ratio=0.95, gap=2.0, seed=5,
    )
    apps = [AppSpec(workload=ycsb, core=0, membind=cxl)]
    for i in range(FIG9_NEIGHBOURS if load > 0 else 0):
        stream = SequentialStream(
            name=f"neigh{i}", num_ops=12000, working_set_bytes=1 << 22,
            read_ratio=0.8, gap=0.5, seed=40 + i,
        )
        apps.append(AppSpec(workload=throttled(stream, load), core=1 + i,
                            membind=cxl))
    spec = ProfileSpec(apps=apps, epoch_cycles=EPOCH, max_epochs=60)
    return CampaignJob(spec=spec, config=config, tag=f"contention@{load:.1f}")


def ycsb_view(result: ProfileResult) -> Dict[str, Any]:
    """The YCSB flow's throughput, core-0 DRd stalls, mean DRd queues and
    FlexBus+MC residency over the epochs it ran in.

    Flows are matched by app name, not pid: a cached session replays
    the recording process's pids.
    """
    ycsb_flow = next(f for f in result.flows if f.app_name == "ycsb")
    stalls = {c: 0.0 for c in STALL_COMPONENTS}
    queues = {"L1D": 0.0, "LFB": 0.0, "L2": 0.0, "LLC": 0.0,
              "FlexBus+MC": 0.0}
    delays = []
    epochs = 0
    for e in result.epochs:
        if not any(f.app_name == "ycsb" for f in e.snapshot.flows):
            continue
        epochs += 1
        for c, v in e.stalls.per_core.get(0, {}).get("DRd", {}).items():
            stalls[c] += v
        for component in ("L1D", "LFB", "L2", "LLC"):
            queues[component] += e.queues.queue(component, "DRd", core_id=0)
        queues["FlexBus+MC"] += e.queues.queue("FlexBus+MC", "DRd")
        delays += [est.delay for est in e.queues.estimates
                   if est.component == "FlexBus+MC" and est.path == "DRd"]
    n = max(1, epochs)
    return {
        "throughput": FIG9_YCSB_OPS / (ycsb_flow.ended_at
                                       or result.total_cycles),
        "stalls": stalls,
        "queues": {c: v / n for c, v in queues.items()},
        "flex_delay": sum(delays) / len(delays) if delays else 0.0,
    }


def case4_contention() -> Experiment:
    """Case 4 (section 5.5, Figs 9-10): neighbour CXL flows vs YCSB."""
    results = run_jobs([_contention_job(load) for load in FIG9_LOADS])
    views = {load: ycsb_view(results[f"contention@{load:.1f}"])
             for load in FIG9_LOADS}
    return Experiment({
        "fig9a": Table(
            "Fig 9-a YCSB throughput (ops/kcycle)", ["load", "tput"],
            [[_pct(load), v["throughput"] * 1000]
             for load, v in views.items()],
        ),
        "fig9h": Table(
            "Fig 9-h FlexBus+MC residency (cycles)", ["load", "delay"],
            [[_pct(load), v["flex_delay"]] for load, v in views.items()],
        ),
        "fig9": Table(
            "Fig 9 YCSB DRd CXL-induced stalls under neighbour load",
            ["load", "L1D+LFB", "L2", "LLC", "uncore"],
            [[_pct(load), s["L1D"] + s["LFB"], s["L2"], s["LLC"],
              s["FlexBus+MC"] + s["CXL_DIMM"]]
             for load, s in ((load, views[load]["stalls"])
                             for load in FIG9_LOADS)],
        ),
        "fig10": Table(
            "Fig 10 queue lengths under neighbour load",
            ["load", "L1D", "LFB", "L2", "LLC", "FlexBus+MC"],
            [[_pct(load)] + list(v["queues"].values())
             for load, v in views.items()],
        ),
    }, results)


# -- case 5: Fig 11 ----------------------------------------------------------


def _bandwidth_job(kind: str) -> Tuple[CampaignJob, List[float]]:
    """Four instances of ``kind`` ("mbw"/"gups") hammering the CXL DIMM,
    plus the bytes each instance processes over its run.

    Instances differ in memory intensity, like the paper's MBW/GUPS
    programs with 500-3700 MB/s solo demands: MBW instances touch a line
    in 1..8 accesses (different compute density), GUPS instances differ
    in dependence (pointer-chased updates have MLP ~ 1).
    """
    config = spr_config(num_cores=4)
    if kind == "mbw":
        workloads = [
            MBW(name=f"mbw{i}", num_ops=8000, working_set_bytes=1 << 22,
                rate_gap=gap, seed=60 + i, accesses_per_line=apl)
            for i, (gap, apl) in enumerate(
                ((6.0, 8), (4.0, 4), (2.0, 2), (0.5, 1)))
        ]
        bytes_per_op = [64.0 / w.accesses_per_line for w in workloads]
    else:
        workloads = [
            GUPS(name=f"gups{i}", num_ops=6000, working_set_bytes=1 << 22,
                 gap=gap, seed=70 + i, dependent=dep)
            for i, (gap, dep) in enumerate(
                ((6.0, True), (3.0, True), (2.0, False), (0.5, False)))
        ]
        bytes_per_op = [64.0] * len(workloads)
    apps = [AppSpec(workload=w, core=i, membind=cxl_node_id(config))
            for i, w in enumerate(workloads)]
    spec = ProfileSpec(apps=apps, epoch_cycles=EPOCH, max_epochs=80)
    moved = [w.num_ops * b for w, b in zip(workloads, bytes_per_op)]
    return CampaignJob(spec=spec, config=config, tag=f"bwpart@{kind}"), moved


def _frequency_and_bandwidth(
    result: ProfileResult, bytes_moved: List[float]
) -> Tuple[List[float], List[float]]:
    """Per-flow CXL request frequency (PFBuilder's per-core CXL hits) and
    application bandwidth (bytes processed over the flow's lifetime)."""
    flows = {f.core_id: f for f in result.flows}
    freqs, bandwidths = [], []
    for core, moved in enumerate(bytes_moved):
        totals: Dict[str, float] = {}
        for e in result.epochs:
            for (scope, event), v in e.snapshot.delta.items():
                if scope == f"core{core}" and event.endswith(".cxl_dram"):
                    totals[event] = totals.get(event, 0.0) + v
        flow = flows[core]
        lifetime = (flow.ended_at or result.total_cycles) - flow.created_at
        freqs.append(sum(totals.values()) / lifetime)
        bandwidths.append(moved / lifetime)
    return freqs, bandwidths


def case5_bandwidth() -> Experiment:
    """Case 5 (section 5.6, Fig 11): CXL bandwidth partition."""
    jobs = [_bandwidth_job(kind) for kind in ("mbw", "gups")]
    results = run_jobs([job for job, _moved in jobs])
    series = {
        job.tag: _frequency_and_bandwidth(results[job.tag], moved)
        for job, moved in jobs
    }
    mbw_freqs, mbw_bws = series["bwpart@mbw"]
    return Experiment({
        "fig11a": Table(
            "Fig 11-a mFlow CXL request freq / bandwidth (per cycle)",
            ["flow", "req freq", "app BW B/cyc"],
            [[f"MBW-{i + 1}", f, b]
             for i, (f, b) in enumerate(zip(mbw_freqs, mbw_bws))],
        ),
        "fig11b": Table(
            "Fig 11-b Pearson(request freq, bandwidth)", ["workload", "r"],
            [[kind, pearsonr(*series[f"bwpart@{kind.lower()}"])]
             for kind in ("MBW", "GUPS")],
        ),
    }, results)


# -- case 6: Fig 12 ----------------------------------------------------------

FIG12_LAUNCH_AT = 60_000.0
FIG12_SCENARIOS = {
    "solo": (),
    "lbm_local": (("519.lbm_r", "local", 1),),
    "roms_cxl": (("554.roms_r", "cxl", 1),),
    "three_apps": (("519.lbm_r", "local", 1), ("505.mcf_r", "local", 2),
                   ("554.roms_r", "cxl", 3)),
}


def _locality_job(name: str) -> CampaignJob:
    """The monitored app on core 0, with neighbours launched mid-run.

    The victim stands in for 503.bwaves_r with a skewed-reuse profile
    over bwaves' (scaled) working set: at simulation scale a pure cold
    stream has no cache-resident state for a neighbour to disturb, so the
    victim needs LLC-resident reuse for the locality signal to exist -
    the same role bwaves' wavefront reuse plays at full scale.  A smaller
    per-core L2 keeps its footprint straddling the L2/LLC boundary.
    """
    config = spr_config(num_cores=4, l2_size=512 * 1024, llc_size=4 << 20)
    victim = ZipfAccess(
        name="bwaves_like", num_ops=30000, working_set_bytes=4 << 20,
        theta=0.6, read_ratio=0.9, gap=3.0, seed=9,
    )
    apps = [AppSpec(workload=victim, core=0, membind=local_node_id(config))]
    for app_name, node, core in FIG12_SCENARIOS[name]:
        apps.append(AppSpec(
            workload=build_app(app_name, num_ops=12000, seed=13 + core),
            core=core,
            membind=(cxl_node_id(config) if node == "cxl"
                     else local_node_id(config)),
            start_at=FIG12_LAUNCH_AT,
        ))
    spec = ProfileSpec(apps=apps, epoch_cycles=10_000.0, max_epochs=80)
    return CampaignJob(spec=spec, config=config, tag=f"locality:{name}")


def victim_locality(result: ProfileResult) -> Tuple[PFMaterializer, int]:
    """The session's materializer, and the victim's pid."""
    pid = next(f.pid for f in result.flows if f.app_name == "bwaves_like")
    return PFMaterializer.from_result(result), pid


def beyond_llc_rate(materializer: PFMaterializer, pid: int) -> float:
    """The victim's share of DRd requests served beyond the LLC (DRAM or
    CXL) after the neighbours launch."""
    served = {}
    for dst in ("LLC", "CXL", "DRAM"):
        q = (materializer.db.from_("path_set")
             .where(pid=str(pid), path="DRd", dst=dst)
             .range(start=FIG12_LAUNCH_AT))
        served[dst] = q.sum("hits") if len(q) else 0.0
    beyond = served["CXL"] + served["DRAM"]
    total = served["LLC"] + beyond
    return beyond / total if total > 0 else 0.0


def case6_locality() -> Experiment:
    """Case 6 (section 5.7, Fig 12): neighbours disturb a victim's LLC."""
    results = run_jobs([_locality_job(name) for name in FIG12_SCENARIOS])
    views = {name: victim_locality(results[f"locality:{name}"])
             for name in FIG12_SCENARIOS}
    shifts = []
    for name, (materializer, pid) in views.items():
        try:
            before, after = materializer.locality_shift(
                pid, FIG12_LAUNCH_AT, dst="LLC")
        except ValueError:
            before = after = 0.0
        shifts.append([name, before, after])
    return Experiment({
        "shift": Table(
            "Fig 12 bwaves LLC-hit rate before/after launch",
            ["scenario", "before", "after"], shifts,
        ),
        "beyond": Table(
            "Fig 12 bwaves beyond-LLC serve rate after launch",
            ["neighbour", "miss rate"],
            [["lbm (local)", beyond_llc_rate(*views["lbm_local"])],
             ["roms (cxl)", beyond_llc_rate(*views["roms_cxl"])]],
        ),
    }, results)


# -- case 7: Fig 13 ----------------------------------------------------------


def _attach_tpp(machine: Machine, spec: ProfileSpec, enabled: bool) -> None:
    """Setup hook: hang the tiering engine off the job's machine.  TPP
    activity reaches the result via its ``tpp.*`` PMU counters."""
    TPP(machine, TPPConfig(epoch_cycles=10_000.0, promote_per_epoch=128,
                           hot_threshold=1.5), enabled=enabled)


#: (label, workload, local:CXL page ratio, the paper's TPP gain).
FIG13_APPS: Tuple[Tuple[str, Callable[[], Workload], float, str], ...] = (
    ("GUPS", lambda: HotColdAccess(
        name="gups-hot", num_ops=16000, working_set_bytes=3 << 20,
        hot_fraction=1.0 / 3.0, hot_probability=0.9, read_ratio=0.5,
        gap=3.0, seed=21), 0.5, "3.0x tput"),
    ("YCSB-C", lambda: ZipfAccess(
        name="ycsb-c", num_ops=16000, working_set_bytes=2 << 20,
        theta=0.99, read_ratio=1.0, gap=5.0, seed=22), 0.8, "2.5% latency"),
    ("fotonik3d", lambda: build_app("649.fotonik3d_s", num_ops=16000,
                                    seed=23), 2.0 / 3.0, "14.3% time"),
)


def _tiered_job(label: str, make: Callable[[], Workload], local_ratio: float,
                enabled: bool) -> CampaignJob:
    config = spr_config(num_cores=2)
    app = AppSpec(
        workload=make(), core=0,
        interleave=(local_node_id(config), cxl_node_id(config), local_ratio),
    )
    spec = ProfileSpec(apps=[app], epoch_cycles=EPOCH, max_epochs=120)
    return CampaignJob(
        spec=spec, config=config,
        tag=f"tpp:{label}:{'on' if enabled else 'off'}",
        setup=functools.partial(_attach_tpp, enabled=enabled),
    )


def _tail_queues(result: ProfileResult) -> Dict[str, float]:
    """Mean DRd queue per component over the final third of the run
    (after TPP warms up)."""
    tail = result.epochs[-max(1, len(result.epochs) // 3):]
    return {
        component: sum(e.queues.queue(component, "DRd") for e in tail)
        / len(tail)
        for component in ("FlexBus+MC", "LFB", "L2")
    }


def case7_tpp() -> Experiment:
    """Case 7 (section 5.8, Fig 13): TPP guided by page temperature."""
    results = run_jobs([
        _tiered_job(label, make, ratio, enabled)
        for label, make, ratio, _paper in FIG13_APPS
        for enabled in (False, True)
    ])
    runtimes = []
    for label, _make, _ratio, paper in FIG13_APPS:
        off = runtime(results[f"tpp:{label}:off"])
        on = runtime(results[f"tpp:{label}:on"])
        runtimes.append([label, off, on, off / on, paper])
    off, on = (api.counters(results[f"tpp:GUPS:{s}"]) for s in ("off", "on"))

    def ocr(totals, family, target):
        return totals.get(("core0", f"ocr.{family}.{target}"), 0.0)

    def m2p(totals, event):
        return sum(v for (_s, e), v in totals.items() if e == event)

    shift = [
        [family, ocr(off, event, "local_dram"), ocr(on, event, "local_dram"),
         ocr(off, event, "cxl_dram"), ocr(on, event, "cxl_dram")]
        for family, event in (("DRd", "demand_data_rd"), ("RFO", "rfo"),
                              ("HWPF", "l2_hw_pf_drd"))
    ]
    for label, event in (("M2PCIe loads", "unc_m2p_txc_inserts.bl"),
                         ("M2PCIe stores", "unc_m2p_txc_inserts.ak")):
        shift.append([label, m2p(off, event), m2p(on, event), "", ""])
    tails = [_tail_queues(results[f"tpp:GUPS:{s}"]) for s in ("off", "on")]
    return Experiment({
        "runtime": Table(
            "Case 7 runtime, TPP off vs on",
            ["app", "off (cyc)", "on (cyc)", "speedup", "paper"], runtimes,
        ),
        "fig13a": Table(
            "Fig 13-a GUPS hit shift (TPP off -> on)",
            ["path", "local off", "local on", "cxl off", "cxl on"], shift,
        ),
        "fig13b": Table(
            "Fig 13-b DRd queue length (late epochs), TPP off vs on",
            ["component", "off", "on"],
            [[c, tails[0][c], tails[1][c]] for c in ("FlexBus+MC", "LFB", "L2")],
        ),
    }, results)


# -- case 8: fabric A/B ------------------------------------------------------


def case8_fabric() -> Experiment:
    """Case 8 (beyond the paper): fabric-congested vs device-bound pools.

    One workload runs over a 2-host pooled fabric twice: behind an
    undersized switch port (congestion builds in the fabric) and behind
    a healthy switch but a slow CXL DIMM (stalls stay device-side).  The
    switch-port counters let the analyzer tell the two apart, which no
    single-host profile can.
    """
    results = run_jobs(congestion_ab_jobs("fft"))
    rows = []
    for tag, result in results.items():
        diagnosis = result.final.queues.fabric_diagnosis()
        hot = diagnosis.congested_port
        retries = sum(v for (s, e), v in api.counters(result).items()
                      if s.startswith("cxlsw.")
                      and e.startswith("unc_cxlsw_retry."))
        rows.append([tag, diagnosis.verdict, hot.name if hot else "-",
                     diagnosis.fabric_queue, diagnosis.device_queue, retries])
    return Experiment({"diagnosis": Table(
        "Case 8 fabric diagnosis: congested vs device-bound pool",
        ["scenario", "verdict", "hot port", "fabric L", "device L",
         "switch retries"], rows,
    )}, results)


CASES: Dict[int, Callable[[], Experiment]] = {
    1: case1_path_classification,
    2: case2_stall_breakdown,
    3: case3_interference,
    4: case4_contention,
    5: case5_bandwidth,
    6: case6_locality,
    7: case7_tpp,
    8: case8_fabric,
}


def run_case(case_id: int) -> None:
    """Run one case and print its tables."""
    if case_id not in CASES:
        raise KeyError(f"unknown case {case_id}; choose 1-8")
    fn = CASES[case_id]
    print(f"### {fn.__doc__.splitlines()[0]}\n")
    print("\n\n".join(t.render() for t in fn().tables.values()))
