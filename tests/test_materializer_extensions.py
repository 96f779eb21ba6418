"""Tests for PFMaterializer extension workflows and session persistence."""

import pytest

from repro import RunOptions, api
from repro.core import (
    AppSpec,
    PFMaterializer,
    ProfileSpec,
    ProfilingMode,
    load_session,
    save_session,
)
from repro.core.persistence import result_from_document, result_to_document
from repro.workloads import SequentialStream


@pytest.fixture(scope="module")
def materialized(cxl_session):
    _m, _p, result = cxl_session
    return PFMaterializer.from_result(result), result


def test_compute_bursts_returns_indices(materialized):
    materializer, result = materialized
    bursts = materializer.compute_bursts(0, z_threshold=1.5)
    assert isinstance(bursts, list)
    for index in bursts:
        assert 0 <= index < result.num_epochs


def test_orthogonality_self_is_one(materialized):
    materializer, _result = materialized
    # A core against itself: identical series, r = 1 (or 0 if constant).
    r = materializer.orthogonality(0, 0)
    assert r == pytest.approx(1.0) or r == 0.0


def test_spatial_locality_in_unit_range(materialized):
    materializer, result = materialized
    value = materializer.spatial_locality(result.flows[0].pid)
    assert 0.0 <= value <= 1.0


def test_spatial_locality_unknown_pid(materialized):
    materializer, _result = materialized
    with pytest.raises(ValueError):
        materializer.spatial_locality(999999)


def test_from_result_over_a_decoded_session_matches(materialized):
    materializer, result = materialized
    decoded = PFMaterializer.from_result(
        result_from_document(result_to_document(result)))
    assert decoded.snapshots_ingested == materializer.snapshots_ingested
    pid = result.flows[0].pid
    assert decoded.locality(pid) == materializer.locality(pid)


def test_from_result_materializes_an_aggregated_session_as_one_point():
    spec = ProfileSpec(
        apps=[AppSpec(workload=SequentialStream(
            num_ops=1500, working_set_bytes=1 << 20, seed=4), core=0,
            membind=0)],
        epoch_cycles=10_000.0, mode=ProfilingMode.AGGREGATED,
    )
    result = api.run(spec, options=RunOptions(cache=False))
    assert PFMaterializer.from_result(result).snapshots_ingested == 1


# -- persistence ---------------------------------------------------------------


def test_session_roundtrip(cxl_session, tmp_path):
    _m, _profiler, result = cxl_session
    path = tmp_path / "session.json"
    save_session(result, path)
    loaded = load_session(path)
    assert loaded.num_epochs == result.num_epochs
    assert loaded.total_cycles == result.total_cycles
    assert {f.flow_id for f in loaded.flows} >= {
        f.flow_id for f in result.flows
    }
    # Counter deltas survive exactly.
    original = result.epochs[0].snapshot
    restored = loaded.epochs[0].snapshot
    assert restored.t_start == original.t_start
    assert restored.t_end == original.t_end
    assert restored.delta == original.delta


def test_loaded_session_reanalyzes(cxl_session, tmp_path):
    _m, _profiler, result = cxl_session
    path = tmp_path / "session.json"
    save_session(result, path)
    loaded = load_session(path)
    assert len(loaded.epochs) == result.num_epochs
    # Offline re-analysis reaches the live run's conclusions exactly.
    offline, live = loaded.epochs[-1], result.epochs[-1]
    assert offline.path_map == live.path_map
    assert offline.stalls == live.stalls
    assert offline.queues == live.queues


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99, "epochs": []}')
    with pytest.raises(ValueError):
        load_session(path)
