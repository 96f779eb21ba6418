"""Tests for PFMaterializer extension workflows and session persistence."""

import pytest

from repro.core import load_session, save_session


def test_compute_bursts_returns_indices(cxl_session):
    _m, profiler, result = cxl_session
    bursts = profiler.materializer.compute_bursts(0, z_threshold=1.5)
    assert isinstance(bursts, list)
    for index in bursts:
        assert 0 <= index < result.num_epochs


def test_orthogonality_self_is_one(cxl_session):
    _m, profiler, _result = cxl_session
    # A core against itself: identical series, r = 1 (or 0 if constant).
    r = profiler.materializer.orthogonality(0, 0)
    assert r == pytest.approx(1.0) or r == 0.0


def test_spatial_locality_in_unit_range(cxl_session):
    _m, profiler, result = cxl_session
    pid = result.flows[0].pid
    value = profiler.materializer.spatial_locality(pid)
    assert 0.0 <= value <= 1.0


def test_spatial_locality_unknown_pid(cxl_session):
    _m, profiler, _result = cxl_session
    with pytest.raises(ValueError):
        profiler.materializer.spatial_locality(999999)


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
