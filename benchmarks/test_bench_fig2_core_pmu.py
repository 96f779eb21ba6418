"""Figure 2: core PMU counters, local vs CXL memory (section 3.2).

Paper headlines on SPR across six applications:
  (a) SB-full stall cycles up ~1.9x (RD+WR) / ~2.0x (WR-only);
  (b) L1D pipeline stalls up ~2.1x, response wait ~1.4x longer;
  (c) ~22.8% fewer DRd+RFO L1D hits under CXL;
  (d) LFB: most apps lose hits and gain stalls (locality-dependent);
  (e) L2-miss stalls up ~2.7x;
  (f) fewer L2 hits across DRd/RFO/HWPF under CXL.

We regenerate each panel's series and assert the direction (and rough
magnitude) of every headline.
"""

import pytest

from repro.experiments import runtime
from repro.workloads import build_app

from .helpers import (
    CHARACTERIZATION_APPS,
    Table,
    geomean,
    local_vs_cxl,
    ratio,
    record,
)


@pytest.fixture(scope="module")
def runs():
    return local_vs_cxl(CHARACTERIZATION_APPS, ops=8000)


def _wr_only_runs():
    """Panel (a)'s WR-only variant: store-only streams."""
    out = {}
    for node in ("local", "cxl"):
        workload = build_app("519.lbm_r", num_ops=6000)
        # Make it write-only by flipping every op to a store.
        ops = [
            type(op)(address=op.address, is_store=True, gap=op.gap)
            for op in workload.ops()
        ]
        out[node] = profile_apps_from_ops(ops, node, workload.vpn_base)
    return out


def profile_apps_from_ops(ops, node, vpn_base):
    from repro.sim import Machine, spr_config
    from repro.core import AppSpec, PathFinder, ProfileSpec
    from repro.workloads.base import Workload

    class _Fixed(Workload):
        def ops(self):
            return iter(ops)

    w = _Fixed("wronly", 1 << 21, len(ops), vpn_base=vpn_base)
    machine = Machine(spr_config(num_cores=2))
    node_id = (
        machine.cxl_node.node_id if node == "cxl" else machine.local_node.node_id
    )
    pf = PathFinder(
        machine,
        ProfileSpec(
            apps=[AppSpec(workload=w, core=0, membind=node_id)],
            epoch_cycles=25_000.0,
        ),
    )
    result = pf.run()
    totals = {}
    for e in result.epochs:
        for k, v in e.snapshot.delta.items():
            totals[k] = totals.get(k, 0.0) + v
    from repro.pmu.views import CorePMUView

    return CorePMUView(totals, 0)


def test_fig2a_sb_stalls(runs):
    rows, ratios = [], []
    for app, pair in runs.items():
        local = pair["local"].core()
        cxl = pair["cxl"].core()
        total_local = local.sb_stall_rd_wr + local.sb_stall_wr_only
        total_cxl = cxl.sb_stall_rd_wr + cxl.sb_stall_wr_only
        r = ratio(total_cxl, total_local)
        rows.append([app, total_local, total_cxl, r])
        if r > 0:
            ratios.append(r)
    record(Table("Fig 2-a SB stall cycles (RD+WR)",
                 ["app", "local", "cxl", "cxl/local"], rows))
    # Paper: ~1.9x more SB stalls on average; require a clear increase.
    assert geomean(ratios) > 1.2


def test_fig2a_wr_only():
    views = _wr_only_runs()
    local = views["local"].sb_stall_rd_wr + views["local"].sb_stall_wr_only
    cxl = views["cxl"].sb_stall_rd_wr + views["cxl"].sb_stall_wr_only
    record(Table("Fig 2-a SB stall cycles (WR-only)",
                 ["node", "stall"], [["local", local], ["cxl", cxl]]))
    assert cxl > 1.2 * local  # paper: ~2.0x
    # WR-only: the bound_on_stores flavour dominates.
    assert views["cxl"].sb_stall_wr_only > 0


def test_fig2b_l1d_stalls_and_response(runs):
    rows, stall_ratios = [], []
    for app, pair in runs.items():
        local, cxl = pair["local"].core(), pair["cxl"].core()
        r_stall = ratio(cxl.l1_stall_cycles, local.l1_stall_cycles)
        r_resp = ratio(cxl.avg_demand_read_latency, local.avg_demand_read_latency)
        rows.append([app, local.l1_stall_cycles, cxl.l1_stall_cycles,
                     r_stall, r_resp])
        if r_stall > 0:
            stall_ratios.append(r_stall)
    record(Table(
        "Fig 2-b L1D stall / response",
        ["app", "stall local", "stall cxl", "stall x", "response x"],
        rows,
    ))
    assert geomean(stall_ratios) > 1.3  # paper: ~2.1x


def test_fig2c_l1d_hit_reduction(runs):
    rows, deltas = [], []
    for app, pair in runs.items():
        local, cxl = pair["local"].core(), pair["cxl"].core()
        if local.l1_hits <= 0:
            continue
        change = (cxl.l1_hits - local.l1_hits) / local.l1_hits
        rows.append([app, local.l1_hits, cxl.l1_hits, change * 100])
        deltas.append(change)
    record(Table("Fig 2-c L1D DRd hits",
                 ["app", "local", "cxl", "change %"], rows))
    # Paper: 22.8% fewer hits on average; require net reduction.
    assert sum(deltas) / len(deltas) < 0.05


def test_fig2d_lfb_behaviour(runs):
    rows = []
    increases = 0
    for app, pair in runs.items():
        local, cxl = pair["local"].core(), pair["cxl"].core()
        rows.append(
            [app, local.fb_hits, cxl.fb_hits,
             local.lfb_full_stall, cxl.lfb_full_stall]
        )
        if cxl.lfb_full_stall > local.lfb_full_stall:
            increases += 1
    record(Table(
        "Fig 2-d LFB hits / full-stall",
        ["app", "fb_hit local", "fb_hit cxl", "stall local", "stall cxl"],
        rows,
    ))
    # Paper: most apps see more LFB stall under CXL (some see less -
    # long-reuse-distance apps benefit).
    assert increases >= len(runs) // 2


def test_fig2e_l2_stalls(runs):
    rows, ratios = [], []
    for app, pair in runs.items():
        local, cxl = pair["local"].core(), pair["cxl"].core()
        r = ratio(cxl.l2_stall_cycles, local.l2_stall_cycles)
        rows.append([app, local.l2_stall_cycles, cxl.l2_stall_cycles, r])
        if r > 0:
            ratios.append(r)
    record(Table("Fig 2-e L2-miss stall cycles",
                 ["app", "local", "cxl", "cxl/local"], rows))
    assert geomean(ratios) > 1.3  # paper: ~2.7x


def test_fig2f_l2_operation_breakdown(runs):
    rows = []
    hit_reductions = []
    for app, pair in runs.items():
        local, cxl = pair["local"].core(), pair["cxl"].core()
        row = [app]
        for family in ("DRd", "RFO", "HWPF"):
            lh, ch = local.l2_hits(family), cxl.l2_hits(family)
            row += [lh, ch]
            if lh > 0:
                hit_reductions.append((ch - lh) / lh)
        rows.append(row)
    record(Table(
        "Fig 2-f L2 hits per path",
        ["app", "DRd loc", "DRd cxl", "RFO loc", "RFO cxl",
         "HWPF loc", "HWPF cxl"],
        rows,
    ))
    # Paper: hits drop on average across paths (trend, not uniform).
    assert sum(hit_reductions) / max(1, len(hit_reductions)) < 0.2


def test_local_vs_cxl_slowdown(runs):
    """Whole-run slowdown of each app when its memory moves to CXL."""

    def hits(run, suffix):
        return round(sum(v for (_s, e), v in run.totals.items()
                         if e.endswith(suffix)))

    rows = []
    for app, pair in runs.items():
        local, cxl = (runtime(pair[node].result) for node in ("local", "cxl"))
        rows.append([app, round(local), round(cxl), cxl / local,
                     hits(pair["local"], ".local_dram"),
                     hits(pair["cxl"], ".cxl_dram")])
    table = record(Table(
        "Sweep: local vs CXL",
        ["app", "runtime_local", "runtime_cxl", "slowdown",
         "local_dram_hits", "cxl_dram_hits"],
        rows,
    ))
    assert all(slowdown > 1.0 for slowdown in table.column("slowdown"))
