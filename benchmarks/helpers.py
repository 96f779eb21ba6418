"""Shared harness code for the per-figure/table benchmarks.

Every bench in this directory regenerates one table or figure of the
paper's evaluation (see DESIGN.md's experiment index) and asserts the
paper's *shape* on it (who wins, rough factors, crossovers) - absolute
numbers are simulator-scaled.  The section 5 case studies come from
:mod:`repro.experiments`, which ``pathfinder case --id N`` also prints.

Every table goes through :func:`record`: it lands in
``results/<slug>.csv``, and a deterministic table that differs from the
committed CSV (or has none) fails its test, naming the file, after
re-recording it for the change to commit.

Profiling goes through :mod:`repro.exec`: each run is a declarative
:class:`~repro.exec.CampaignJob` resolved against the content-addressed
result cache (``results/cache/`` by default; ``PATHFINDER_CACHE_DIR``
relocates it, ``PATHFINDER_NO_CACHE=1`` disables it), so re-running a
figure after an unrelated edit replays cached sessions instead of
re-simulating, and multi-run sweeps fan out over the campaign runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import api
from repro.core import ProfileResult
from repro.exec import CampaignJob, cxl_node_id
from repro.experiments import Table, app_job, run_jobs
from repro.experiments import record as record_table
from repro.pmu.views import CHAPMUView, CorePMUView, IMCView, M2PCIeView
from repro.sim import MachineConfig

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: The six applications most of the section 3 characterisation figures use.
CHARACTERIZATION_APPS = (
    "519.lbm_r", "503.bwaves_r", "505.mcf_r", "554.roms_r",
    "541.leela_r", "507.cactuBSSN_r",
)


def record(table: Table) -> Table:
    """Print ``table`` and record it under ``results/``."""
    print("\n" + table.render())
    record_table(table, RESULTS)
    return table


@dataclass
class Run:
    """One profiled session plus its aggregate counter delta."""

    result: ProfileResult
    totals: Dict[Tuple[str, str], float]
    cxl_node: int = 2

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


def profile(jobs: Sequence[CampaignJob]) -> List[Run]:
    """Run ``jobs`` as one cached campaign, in job order."""
    results = run_jobs(jobs)
    return [
        Run(results[job.tag], api.counters(results[job.tag]),
            cxl_node_id(job.config))
        for job in jobs
    ]


def local_vs_cxl(
    app_names: Iterable[str], ops: int = 8000,
    config: Optional[MachineConfig] = None,
) -> Dict[str, Dict[str, Run]]:
    """Run each app on local DDR and on CXL - the section 3 comparison -
    as one campaign."""
    names = list(app_names)
    nodes = ("local", "cxl")
    runs = iter(profile([app_job(name, node, ops, config)
                         for name in names for node in nodes]))
    return {name: {node: next(runs) for node in nodes} for name in names}


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
