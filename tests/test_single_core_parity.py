"""Bit parity of the single-core exact path.

The app-matrix session (one app on one core, bound to local DDR or to
the CXL node) is the one most users run, and its recorded digests live
in ``perfbench/digests.json``, which only the benchmark reads.  This
pins the same kind of session at 1,000 ops, seed 0, for the three
matrix apps on both nodes, plus one section 2.3 pointer-chase probe.

A change that only makes the simulator faster must reproduce the event
count and the counter digest of every cell bit for bit.  A model change
moves them by design and re-records them here, saying why.
"""

import pytest

from repro import RunOptions, api
from repro.core import AppSpec, ProfileSpec
from repro.exec import cxl_node_id, local_node_id
from repro.sim import Machine, spr_config
from repro.workloads import PointerChase, build_app

from tests.test_pooled_parity import counter_digest

SEED = 0
OPS = 1000
EPOCH = 20_000.0

#: cell -> (events_executed, sha256 of the session's total counters)
RECORDED = {
    "519.lbm_r@cxl": (
        9204,
        "d0fbc42390a5d74e8e6602eede305d02b4ed0275805d243c612f4ee706672d77",
    ),
    "519.lbm_r@local": (
        5432,
        "1a3c2b2b3725532d3c9a2f60c1f34806dec4f33afbfe1b85408ba2728dd14da7",
    ),
    "541.leela_r@cxl": (
        7437,
        "ed999dfc873d5f5eecc04b6f7cc521e10e904f09942c3cb3c2a35b061dba6081",
    ),
    "541.leela_r@local": (
        4913,
        "439a4444767ef4b5c84177473caa9ad9305f1b1abcf5285cb0c20eb15fbf62f0",
    ),
    "bfs@cxl": (
        16956,
        "e39d572b4f1fff7dcf55fdc9ba8a9c93dd8c724af54f37f4858c6d0e92562e0d",
    ),
    "bfs@local": (
        10655,
        "0066435600ba03f7e98104d1afbaaab2b32923af4b2ad388bb023765b013d861",
    ),
    "probe@cxl": (
        14958,
        "e6ef6cfb8416b0df4d3e528a52c8670fae8240eb697a72a62ffd733e34333999",
    ),
}

#: Paths the cells reach between them; each counter must be non-zero
#: summed over every cell, so a pin cannot hold on a path gone idle.
REACHED = (
    "mem_load_retired.fb_hit",
    "l1d_pend_miss.fb_full",
    "resource_stalls.sb",
    "unc_m_rpq_inserts",
    "unc_m2p_rxc_inserts.all",
    "sw_prefetch_access.any",
)


def _node(config, node: str) -> int:
    return local_node_id(config) if node == "local" else cxl_node_id(config)


def cell(name: str):
    app, node = name.split("@")
    if app == "probe":
        config = spr_config(num_cores=2)
        workload = PointerChase(num_ops=OPS, working_set_bytes=1 << 24,
                                gap=0.0, seed=SEED)
    else:
        config = spr_config()
        workload = build_app(app, num_ops=OPS, seed=SEED)
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=_node(config, node))],
        epoch_cycles=EPOCH,
    )
    return spec, config


def run_cell(name: str):
    spec, config = cell(name)
    machine = Machine(config)
    result = api.run(spec, machine=machine, options=RunOptions())
    totals = api.counters(result)
    return machine.engine.events_executed, counter_digest(totals), totals


@pytest.fixture(scope="module")
def sessions():
    return {name: run_cell(name) for name in sorted(RECORDED)}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_single_core_counters_are_bit_identical(sessions, name):
    events, digest, _ = sessions[name]
    assert (events, digest) == RECORDED[name]


@pytest.mark.parametrize("event", REACHED)
def test_cells_reach_each_path(sessions, event):
    total = sum(value for _, _, totals in sessions.values()
                for (_, name), value in totals.items()
                if name == event or name.startswith(event + "."))
    assert total > 0
