"""Figure 13 / Case 7 (section 5.8): performance optimisation with TPP.

Paper configuration and headlines:

* YCSB-C (zipf) with a 4:1 local/CXL split: query latency improves ~2.5%;
* GUPS with a hot set (24G of 72G, 90% hot probability, 1:1 RW): TPP
  improves throughput ~3.0x;
* fotonik3d with 2:1 local/CXL: execution time down ~14.3%;
* Fig 13-a: with TPP on, local-memory hits rise sharply and CXL hits
  collapse (GUPS: DRd/RFO/HWPF local hits up 7.4x/1.7x/3.3x, CXL hits
  down ~87-93%; M2PCIe loads/stores down ~84%);
* Fig 13-b: CHA and FlexBus+MC latencies drop (GUPS FlexBus+MC latency
  down ~79-84%);
* culprit-path queueing collapses (GUPS culprit queue down ~96%).

The local:CXL interleave sweep below is the axis TPP moves along: the
same app with a growing share of its pages on local memory.
"""

import pytest

from repro import api
from repro.core import AppSpec, ProfileSpec
from repro.exec import CampaignJob, cxl_node_id, local_node_id
from repro.experiments import Table, case7_tpp, pinned_job, run_jobs, runtime
from repro.sim import spr_config
from repro.workloads import build_app

from .helpers import record


@pytest.fixture(scope="module")
def case():
    return case7_tpp()


def test_fig13_speedups(case):
    table = record(case.tables["runtime"])
    off = dict(zip(table.column("app"), table.column("off (cyc)")))
    on = dict(zip(table.column("app"), table.column("on (cyc)")))
    # GUPS benefits the most (hot set fits local memory); paper: 3.0x.
    assert off["GUPS"] > 1.2 * on["GUPS"]
    # YCSB-C and fotonik see smaller but non-negative improvements.
    assert on["YCSB-C"] <= off["YCSB-C"] * 1.05
    assert on["fotonik3d"] <= off["fotonik3d"] * 1.05


def test_fig13a_hit_shift(case):
    rows = {row[0]: row[1:] for row in record(case.tables["fig13a"]).rows}
    local_off, local_on, cxl_off, cxl_on = rows["DRd"]
    # Local DRd hits rise, CXL DRd hits fall (paper: 7.4x up / -87%).
    assert local_on > local_off
    assert cxl_on < 0.7 * max(cxl_off, 1.0)
    # M2PCIe traffic to the CXL DIMM collapses (paper: ~-84%).
    loads_off, loads_on = rows["M2PCIe loads"][:2]
    assert loads_on < 0.7 * max(loads_off, 1.0)


def test_fig13b_culprit_queue_drops(case):
    """The TPP-off culprit is the CXL path (FlexBus+MC); with TPP on,
    queueing at that same component collapses (paper: GUPS -96%)."""
    rows = {row[0]: row[1:] for row in record(case.tables["fig13b"]).rows}
    off, on = rows["FlexBus+MC"]
    assert on < 0.5 * max(off, 0.01)


def test_fig13_tpp_actually_migrated(case):
    promoted = {
        state: api.counters(case.results[f"tpp:GUPS:{state}"]).get(
            ("tpp", "pages_promoted"), 0.0)
        for state in ("off", "on")
    }
    assert promoted["on"] > 0
    assert promoted["off"] == 0


def _interleave_job(local_ratio: float) -> CampaignJob:
    """519.lbm_r with ``local_ratio`` of its pages on local memory; the
    endpoints are plain membind placements."""
    workload = build_app("519.lbm_r", num_ops=4000, seed=1)
    tag = f"local{int(local_ratio * 100):03d}"
    if local_ratio in (0.0, 1.0):
        return pinned_job(workload, "local" if local_ratio else "cxl",
                          tag=tag)
    config = spr_config(num_cores=2)
    app = AppSpec(workload=workload, core=0, interleave=(
        local_node_id(config), cxl_node_id(config), local_ratio))
    spec = ProfileSpec(apps=[app], epoch_cycles=25_000.0)
    return CampaignJob(spec=spec, config=config, tag=tag)


def test_interleave_sweep():
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)
    jobs = [_interleave_job(ratio) for ratio in ratios]
    results = run_jobs(jobs)
    rows = []
    for ratio, job in zip(ratios, jobs):
        result = results[job.tag]
        counters = api.counters(result)
        rows.append([ratio, round(runtime(result))] + [
            round(sum(v for (_s, e), v in counters.items()
                      if e.endswith(suffix)))
            for suffix in (".local_dram", ".cxl_dram")
        ])
    table = record(Table(
        "Sweep: interleave",
        ["local_ratio", "runtime", "local_dram_hits", "cxl_dram_hits"], rows,
    ))
    # More local pages: less CXL traffic and a shorter run.
    for column in ("runtime", "cxl_dram_hits"):
        values = table.column(column)
        assert values == sorted(values, reverse=True), column
