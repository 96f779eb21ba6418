"""Bit parity of the pooled-fabric contention path.

The recorded app-matrix digests (``perfbench/digests.json``) never fill
the CXL device's packing buffer, so they cannot see a change to its
4-cycle poll or to the queues and switch behind it.  This pins one
tiny-scale section 5.5 contention session - a Zipf victim and three
streaming neighbours on a pooled 2-host fabric whose second host
injects background reads - at exact and at adaptive fidelity.

A change that only makes the simulator faster must reproduce the event
count and the counter digest bit for bit.  A model change (for example
credit backpressure in place of the poll) moves them by design and
re-records them here, saying why.

The digests were re-recorded once without a model change, when epoch
deltas became sparse: an in-process session's totals no longer list
counters that never moved.  Each new digest is the one the previous
code gave for this session through the campaign path
(``api.run(spec, config=config, options=RunOptions(cache=False,
fidelity=f))``), whose decoded result was already sparse.
"""

import hashlib
import json

import pytest

from repro import RunOptions, api
from repro.core import AppSpec, ProfileSpec
from repro.exec import cxl_node_id
from repro.sim import Machine, spr_config
from repro.sim.fabric import apply_fabric, preset_fabric
from repro.workloads import SequentialStream, ZipfAccess

SEED = 0

#: fidelity -> (events_executed, sha256 of the session's total counters)
RECORDED = {
    "exact": (
        75460,
        "25c333f785f8660faf2c7404b3089a0515d664f591e9ec623c5de1c0f4dbc6d0",
    ),
    "adaptive": (
        73229,
        "10a201e02dc7e5cd24984fa5c5835155f75ea4e4f0f161f971903dc1bf07fea4",
    ),
}


def pooled_session(seed: int):
    """The perfbench ``pooled-contention`` input at its tiny scale."""
    fabric = preset_fabric("pooled", num_devices=1, inject_ops=300)
    config = apply_fabric(spr_config(num_cores=4), fabric)
    node = cxl_node_id(config)
    apps = [AppSpec(
        workload=ZipfAccess(name="ycsb", num_ops=150,
                            working_set_bytes=1 << 22, gap=2.0, seed=seed),
        core=0, membind=node,
    )]
    for i in range(3):
        apps.append(AppSpec(
            workload=SequentialStream(
                name=f"neighbour{i}", num_ops=600,
                working_set_bytes=1 << 22, gap=0.5, seed=seed + 101 * (i + 1),
            ),
            core=1 + i, membind=node,
        ))
    return ProfileSpec(apps=apps, epoch_cycles=5000.0), config


def counter_digest(totals) -> str:
    payload = json.dumps(sorted((scope, event, repr(value))
                                for (scope, event), value in totals.items()))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("fidelity", sorted(RECORDED))
def test_pooled_contention_counters_are_bit_identical(fidelity):
    spec, config = pooled_session(SEED)
    machine = Machine(config)
    result = api.run(spec, machine=machine,
                     options=RunOptions(fidelity=fidelity))
    totals = api.counters(result)
    # The session exercises the poll: the device's read packing buffer
    # sat full for a while.
    full = sum(value for (scope, event), value in totals.items()
               if event == "unc_cxlcm_rxc_pack_buf_full.mem_req")
    assert full > 0
    if fidelity == "adaptive":
        assert result.warp is not None and result.warp.events
    assert (machine.engine.events_executed, counter_digest(totals)) == \
        RECORDED[fidelity]


@pytest.mark.parametrize("fidelity", sorted(RECORDED))
def test_live_run_reproduces_the_pinned_counters(fidelity):
    # Live profiling only observes: its rolling state, queue samples and
    # per-epoch digests must not move one event or one counter.
    spec, config = pooled_session(SEED)
    machine = Machine(config)
    digests = []
    result = api.run(spec, machine=machine,
                     options=RunOptions(live=True, fidelity=fidelity),
                     on_epoch=digests.append)
    assert len(digests) == result.num_epochs
    assert any("hot_queues" in digest for digest in digests)
    if fidelity == "adaptive":
        # Queue meters do not move during a fast-forward, so a warped
        # epoch's digest reports no queues.
        warped = [digest for digest in digests if digest.get("warped")]
        assert warped
        assert not any("hot_queues" in digest for digest in warped)
    assert (machine.engine.events_executed,
            counter_digest(api.counters(result))) == RECORDED[fidelity]
