"""Shared harness code for the per-figure/table benchmarks.

Every bench in this directory regenerates one table or figure of the
paper's evaluation (see DESIGN.md's experiment index): it runs the
workload(s) through PathFinder on the simulated machine, prints the same
rows/series the paper reports, and asserts the paper's *shape* (who wins,
rough factors, crossovers) - absolute numbers are simulator-scaled.

Profiling goes through :mod:`repro.exec`: each run is a declarative
:class:`~repro.exec.CampaignJob` resolved against the content-addressed
result cache (``results/cache/`` by default; ``PATHFINDER_CACHE_DIR``
relocates it, ``PATHFINDER_NO_CACHE=1`` disables it), so re-running a
figure after an unrelated edit replays cached sessions instead of
re-simulating, and multi-run sweeps fan out over the campaign runner.

Benches use ``benchmark.pedantic(..., rounds=1)`` so pytest-benchmark
records wall-clock per experiment without re-running multi-second
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import RunOptions, api
from repro.core import AppSpec, PathFinder, ProfileResult, ProfileSpec
from repro.exec import (
    CampaignJob,
    CampaignResult,
    cxl_node_id,
    default_cache,
    local_node_id,
    run_campaign,
)
from repro.pmu.views import CHAPMUView, CorePMUView, IMCView, M2PCIeView
from repro.sim import Machine, MachineConfig, spr_config
from repro.workloads import Workload, build_app

#: Default op count per application: long enough for warm caches and
#: stable phases, short enough that a full figure regenerates in minutes.
DEFAULT_OPS = 8000
EPOCH = 25_000.0

#: The six applications most of the section 3 characterisation figures use.
CHARACTERIZATION_APPS = (
    "519.lbm_r", "503.bwaves_r", "505.mcf_r", "554.roms_r",
    "541.leela_r", "507.cactuBSSN_r",
)


@dataclass
class Run:
    """One profiled execution plus its aggregate counter delta.

    ``machine``/``profiler`` are only populated for live in-process runs;
    a cache-hit (or worker-pool) run carries the reconstructed result and
    counter totals, which is all the figure assertions read.
    """

    name: str
    node: str
    result: ProfileResult
    totals: Dict[Tuple[str, str], float]
    cxl_node: int = 2
    machine: Optional[Machine] = None
    profiler: Optional[PathFinder] = None

    def core(self, core_id: int = 0) -> CorePMUView:
        return CorePMUView(self.totals, core_id)

    def cha(self) -> CHAPMUView:
        return CHAPMUView(self.totals, 0)

    def imc(self) -> IMCView:
        return IMCView(self.totals, 0)

    def m2pcie(self) -> M2PCIeView:
        return M2PCIeView(self.totals, self.cxl_node)

    @property
    def cycles(self) -> float:
        return self.result.total_cycles


def totals_of(result: ProfileResult) -> Dict[Tuple[str, str], float]:
    """Aggregate counter deltas across a session (api.counters)."""
    return api.counters(result)


def node_id_for(node: str, config: MachineConfig) -> int:
    """Declarative node id ('local'/'cxl') without building a Machine."""
    return cxl_node_id(config) if node == "cxl" else local_node_id(config)


def make_spec(
    workloads: Sequence[Workload],
    node: str,
    config: MachineConfig,
    epoch: float = EPOCH,
    interleave: Optional[float] = None,
    max_epochs: int = 10_000,
) -> ProfileSpec:
    """The declarative spec ``profile_apps`` runs (apps on cores 0..n)."""
    node_id = node_id_for(node, config)
    apps = []
    for core, workload in enumerate(workloads):
        if interleave is None:
            apps.append(AppSpec(workload=workload, core=core, membind=node_id))
        else:
            apps.append(
                AppSpec(
                    workload=workload,
                    core=core,
                    interleave=(
                        local_node_id(config), cxl_node_id(config), interleave
                    ),
                )
            )
    return ProfileSpec(apps=apps, epoch_cycles=epoch, max_epochs=max_epochs)


def run_job(job: CampaignJob, node: str = "cxl", name: str = "") -> Run:
    """Resolve one job against the bench cache and wrap it as a Run."""
    campaign = run_campaign(
        [job], parallel=False, cache=default_cache(), retries=0
    )
    record = campaign.jobs[0]
    if not record.ok:
        raise RuntimeError(
            f"bench job {job.tag or name!r} failed"
            f" ({record.failure}): {record.error}"
        )
    result = campaign.results[0]
    return Run(
        name=name or job.tag,
        node=node,
        result=result,
        totals=totals_of(result),
        cxl_node=cxl_node_id(job.config),
    )


def profile_apps(
    workloads: Sequence[Workload],
    node: str = "cxl",
    config: Optional[MachineConfig] = None,
    epoch: float = EPOCH,
    interleave: Optional[float] = None,
    name: str = "",
) -> Run:
    """Profile one or more workloads pinned to consecutive cores."""
    config = config or spr_config(num_cores=max(2, len(workloads)))
    spec = make_spec(workloads, node, config, epoch=epoch,
                     interleave=interleave)
    label = name or "+".join(w.name for w in workloads)
    return run_job(
        CampaignJob(spec=spec, config=config, tag=label), node=node, name=label
    )


def run_app(name: str, node: str, ops: int = DEFAULT_OPS, seed: int = 1,
            config: Optional[MachineConfig] = None) -> Run:
    return profile_apps(
        [build_app(name, num_ops=ops, seed=seed)], node=node, config=config,
        name=f"{name}@{node}",
    )


def local_vs_cxl(
    app_names: Iterable[str], ops: int = DEFAULT_OPS,
    config: Optional[MachineConfig] = None,
) -> Dict[str, Dict[str, Run]]:
    """Run each app on local DDR and on CXL - the section 3 comparison.

    The grid executes as one campaign (worker-pool parallel on multi-core
    hosts, cache-resolved on reruns) instead of serial back-to-back runs.
    """
    names = list(app_names)
    jobs, index = [], []
    for name in names:
        for node in ("local", "cxl"):
            job_config = config or spr_config(num_cores=2)
            spec = make_spec(
                [build_app(name, num_ops=ops, seed=1)], node, job_config
            )
            jobs.append(CampaignJob(spec=spec, config=job_config,
                                    tag=f"{name}@{node}"))
            index.append((name, node))
    campaign = api.run_many(
        jobs, options=RunOptions(cache=default_cache() or False))
    out: Dict[str, Dict[str, Run]] = {}
    for (name, node), job, result in zip(index, campaign.jobs, campaign.results):
        if result is None:
            raise RuntimeError(
                f"bench job {job.tag!r} failed ({job.failure}): {job.error}"
            )
        out.setdefault(name, {})[node] = Run(
            name=job.tag,
            node=node,
            result=result,
            totals=totals_of(result),
            cxl_node=cxl_node_id(jobs[job.index].config),
        )
    return out


def ratio(cxl_value: float, local_value: float) -> float:
    """CXL/local ratio; 0 when the local side is silent."""
    if local_value <= 0:
        return 0.0
    return cxl_value / local_value


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(_fmt(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or 0 < abs(value) < 1e-2:
            return f"{value:.2e}"
        return f"{value:.2f}"
    return str(value)


def once(benchmark, fn: Callable[[], object]):
    """Record one timed execution with pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
