"""ProfileSpec / MachineConfig / workload JSON (de)serialization.

The serving daemon receives specs as JSON documents; the round trip must
reproduce a spec that hashes to the same cache key as one built
in-process, or idempotency-by-key silently breaks.
"""

import dataclasses

import pytest

from repro import api
from repro.core import (
    AppSpec,
    ProfileSpec,
    TraceSpec,
    config_from_document,
    config_to_document,
    spec_from_document,
    spec_to_document,
)
from repro.core.spec import ProfilingMode
from repro.exec import cxl_node_id, job_key, local_node_id
from repro.sim import emr_config, spr_config
from repro.workloads import (
    GUPS,
    PhasedWorkload,
    SequentialStream,
    build_app,
    workload_from_document,
    workload_to_document,
)


def _spec(app="541.leela_r", **spec_kwargs):
    workload = build_app(app, num_ops=600, seed=3)
    node = cxl_node_id(spr_config())
    return ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=node)],
        epoch_cycles=20_000.0,
        **spec_kwargs,
    )


# -- workload round trips -------------------------------------------------


@pytest.mark.parametrize("app", [
    "519.lbm_r", "505.mcf_r", "502.gcc_r", "ycsb_a", "bfs", "redis",
])
def test_catalog_workload_round_trip_preserves_key(app):
    spec = _spec(app)
    document = workload_to_document(spec.apps[0].workload)
    rebuilt = workload_from_document(document)
    again = dataclasses.replace(spec.apps[0], workload=rebuilt)
    spec2 = dataclasses.replace(spec, apps=[again])
    assert job_key(spec, spr_config()) == job_key(spec2, spr_config())


def test_synthetic_workload_round_trip():
    workload = GUPS(name="probe", working_set_bytes=1 << 20, num_ops=500,
                    seed=9, read_ratio=0.75)
    rebuilt = workload_from_document(workload_to_document(workload))
    assert isinstance(rebuilt, GUPS)
    assert rebuilt.name == "probe"
    assert rebuilt.num_ops == 500
    assert rebuilt.read_ratio == 0.75


def test_phased_workload_round_trip():
    phases = [
        SequentialStream(name="s", working_set_bytes=1 << 20, num_ops=200,
                         seed=1),
        GUPS(name="g", working_set_bytes=1 << 20, num_ops=200, seed=1),
    ]
    workload = PhasedWorkload(name="phased", phases=phases, seed=5)
    rebuilt = workload_from_document(workload_to_document(workload))
    assert isinstance(rebuilt, PhasedWorkload)
    assert len(rebuilt.phases) == 2
    assert isinstance(rebuilt.phases[1], GUPS)
    assert rebuilt.num_ops == 400


def test_unknown_workload_type_is_rejected():
    with pytest.raises(ValueError):
        workload_from_document({
            "format": 1, "kind": "synthetic", "type": "NotAWorkload",
            "params": {},
        })


# -- spec round trips -----------------------------------------------------


def test_spec_round_trip_preserves_job_key():
    spec = _spec()
    rebuilt = spec_from_document(spec_to_document(spec))
    assert job_key(spec, spr_config()) == job_key(rebuilt, spr_config())


def test_spec_round_trip_keeps_mode_report_and_trace():
    spec = _spec(
        mode=ProfilingMode.AGGREGATED,
        max_epochs=7,
        trace=TraceSpec(sample_every=16, max_requests=500),
    )
    document = spec_to_document(spec)
    assert "report" not in document
    # A document from before the report selection was dropped (a
    # journaled submission) still carries it; the key is ignored.
    journaled = dict(document, report={"path_map": True, "locality": True,
                                       "top_n_paths": 2})
    for doc in (document, journaled):
        rebuilt = spec_from_document(doc)
        assert rebuilt.mode is ProfilingMode.AGGREGATED
        assert rebuilt.max_epochs == 7
        assert rebuilt.trace.sample_every == 16
        assert rebuilt.trace.max_requests == 500
        assert job_key(rebuilt, spr_config()) == job_key(spec, spr_config())


def test_spec_round_trip_keeps_bindings():
    config = spr_config()
    workload = build_app("541.leela_r", num_ops=400, seed=1)
    interleaved = AppSpec(
        workload=workload, core=1,
        interleave=(local_node_id(config), cxl_node_id(config), 0.5),
        start_at=1000.0,
    )
    pre = AppSpec(
        workload=build_app("bfs", num_ops=400, seed=1), core=0,
        preinstalled=[cxl_node_id(config)],
    )
    spec = ProfileSpec(apps=[pre, interleaved], epoch_cycles=20_000.0)
    rebuilt = spec_from_document(spec_to_document(spec))
    assert rebuilt.apps[0].preinstalled == [cxl_node_id(config)]
    assert rebuilt.apps[1].interleave == (
        local_node_id(config), cxl_node_id(config), 0.5
    )
    assert rebuilt.apps[1].start_at == 1000.0


# -- config round trips ---------------------------------------------------


@pytest.mark.parametrize("config_fn", [spr_config, emr_config])
def test_config_round_trip_is_exact(config_fn):
    config = config_fn(num_cores=4, num_cxl_devices=2)
    rebuilt = config_from_document(config_to_document(config))
    assert dataclasses.asdict(rebuilt) == dataclasses.asdict(config)
    assert job_key(_spec(), rebuilt) == job_key(_spec(), config)


def test_config_with_fabric_round_trip_preserves_job_key():
    from repro.sim import apply_fabric, preset_fabric

    config = apply_fabric(
        spr_config(num_cores=2), preset_fabric("two-tier", num_devices=2)
    )
    import json

    document = json.loads(json.dumps(config_to_document(config)))
    rebuilt = config_from_document(document)
    assert rebuilt == config
    assert rebuilt.fabric == config.fabric
    assert job_key(_spec(), rebuilt) == job_key(_spec(), config)
    # A different topology must hash to a different job.
    other = apply_fabric(spr_config(num_cores=2), "pooled")
    assert job_key(_spec(), other) != job_key(_spec(), config)


def test_config_none_passthrough_and_unknown_field_rejection():
    assert config_from_document(None) is None
    document = config_to_document(spr_config())
    document["warp_drive"] = True
    with pytest.raises(ValueError):
        config_from_document(document)


# -- api.config_for honours node bindings ---------------------------------


def test_config_for_covers_membind_node():
    spec = _spec()
    config = api.config_for(spec)
    node = spec.apps[0].membind
    # The built machine must actually expose the bound node.
    from repro.sim.machine import Machine

    machine = Machine(config)
    assert any(n.node_id == node for n in machine.address_space.nodes)


def test_config_for_grows_cxl_devices_for_high_node_ids():
    base = spr_config()
    high_node = cxl_node_id(base) + 2  # third CXL device
    workload = build_app("541.leela_r", num_ops=400, seed=1)
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=high_node)],
        epoch_cycles=20_000.0,
    )
    config = api.config_for(spec)
    assert config.num_cxl_devices >= 3
    from repro.sim.machine import Machine

    machine = Machine(config)
    assert any(n.node_id == high_node for n in machine.address_space.nodes)


def test_config_for_covers_interleave_and_preinstalled_nodes():
    base = spr_config()
    target = cxl_node_id(base) + 1
    workload = build_app("541.leela_r", num_ops=400, seed=1)
    inter = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0,
                      interleave=(local_node_id(base), target, 0.5))],
        epoch_cycles=20_000.0,
    )
    assert api.config_for(inter).num_cxl_devices >= 2
    pre = ProfileSpec(
        apps=[AppSpec(workload=build_app("bfs", num_ops=400, seed=1),
                      core=0, preinstalled=[target])],
        epoch_cycles=20_000.0,
    )
    assert api.config_for(pre).num_cxl_devices >= 2
