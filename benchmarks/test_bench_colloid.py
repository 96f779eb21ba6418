"""Section 5.8's tiering optimisation: TPP + Colloid + PathFinder.

Colloid guides TPP's migration with per-tier access latency; the paper's
PathFinder-assisted dynamic variant swaps Colloid's fixed DRd latency for
the latency of the *dominant request type* of the current phase
(PFBuilder-reported CHA miss ratios pick the type), improving GUPS
throughput by a further ~1.1x.
"""

import pytest

from repro.sim import Machine, spr_config
from repro.tiering import TPP, Colloid, ColloidConfig, DynamicColloid, TPPConfig
from repro.workloads import HotColdAccess

from .helpers import Table, record


def run_variant(variant: str, seed: int = 31):
    machine = Machine(spr_config(num_cores=2))
    workload = HotColdAccess(
        name="gups-hot", num_ops=16000, working_set_bytes=3 << 20,
        hot_fraction=1.0 / 3.0, hot_probability=0.9, read_ratio=0.5,
        gap=3.0, seed=seed,
    )
    workload.install_interleaved(
        machine, machine.local_node.node_id, machine.cxl_node.node_id, 0.5
    )
    # Colloid starts from a conservative budget; the control law ramps it.
    base = TPPConfig(epoch_cycles=10_000.0, promote_per_epoch=16,
                     hot_threshold=1.5)
    controller = None
    if variant == "none":
        tpp = TPP(machine, base, enabled=False)
    elif variant == "tpp":
        tpp = TPP(machine, TPPConfig(epoch_cycles=10_000.0,
                                     promote_per_epoch=16, hot_threshold=1.5))
    elif variant == "tpp+colloid":
        tpp = TPP(machine, base)
        controller = Colloid(machine, tpp, ColloidConfig(epoch_cycles=10_000.0))
    elif variant == "tpp+dynamic":
        tpp = TPP(machine, base)
        controller = DynamicColloid(
            machine, tpp, ColloidConfig(epoch_cycles=10_000.0)
        )
    else:
        raise ValueError(variant)
    machine.pin(0, iter(workload))
    machine.run(max_events=60_000_000)
    assert machine.all_idle
    return {
        "runtime": machine.now,
        "tpp": tpp,
        "controller": controller,
        "throughput": workload.num_ops / machine.now,
    }


@pytest.fixture(scope="module")
def variants():
    return {v: run_variant(v) for v in
            ("none", "tpp", "tpp+colloid", "tpp+dynamic")}


def test_colloid_table(variants):
    rows = [
        [name, data["runtime"], data["throughput"] * 1000,
         data["tpp"].stats.promotions]
        for name, data in variants.items()
    ]
    record(Table(
        "Tiering variants on hot/cold GUPS",
        ["variant", "cycles", "ops/kcyc", "promotions"],
        rows,
    ))
    # Any tiering beats none.
    assert variants["tpp"]["runtime"] < variants["none"]["runtime"]


def test_colloid_ramps_budget(variants):
    colloid = variants["tpp+colloid"]["controller"]
    assert colloid.decisions, "control law never ran"
    # Starting budget was 16; CXL was slower so it must have ramped.
    assert variants["tpp+colloid"]["tpp"].config.promote_per_epoch > 16


def test_dynamic_improves_or_matches_colloid(variants):
    """Paper: the PathFinder-assisted variant is ~1.1x better for GUPS."""
    dynamic = variants["tpp+dynamic"]["throughput"]
    colloid = variants["tpp+colloid"]["throughput"]
    assert dynamic >= 0.95 * colloid


def test_dynamic_selected_a_family(variants):
    controller = variants["tpp+dynamic"]["controller"]
    assert controller.chosen_family
    assert set(controller.chosen_family) <= {"DRd", "RFO", "HWPF"}
