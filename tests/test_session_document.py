"""One result shape: a session equals its own document.

Every :class:`~repro.core.profiler.ProfileResult` - computed in this
process, by a campaign, streamed live, traced, warped, aggregated or
loaded from disk - holds sparse epoch deltas and analyses built by one
function, so ``result_from_document(result_to_document(r)) == r``.  The
campaign runner therefore decodes only what crossed a process boundary
or came out of the cache.
"""

import json

import pytest

from repro import RunOptions, api
from repro.core import AppSpec, ProfileSpec, ProfilingMode
from repro.core.persistence import (
    load_session,
    result_from_document,
    result_to_document,
    save_session,
)
from repro.exec import CampaignJob, ResultCache, local_node_id, run_campaign
from repro.exec import runner
from repro.sim import Machine, spr_config
from repro.workloads import build_app
from tests.test_pooled_parity import SEED, pooled_session

CONFIG = spr_config()


def _spec(mode=ProfilingMode.CONTINUOUS, app="541.leela_r", num_ops=600):
    # Local-bound: the CXL path-map rows are zero, the rows an in-process
    # result used to keep and its document dropped.
    return ProfileSpec(
        apps=[AppSpec(workload=build_app(app, num_ops=num_ops, seed=5),
                      core=0, membind=local_node_id(CONFIG))],
        epoch_cycles=5_000.0, mode=mode,
    )


def _on_machine(spec, config=CONFIG, **options):
    return api.run(spec, machine=Machine(config),
                   options=RunOptions(**options))


def _pooled(fidelity):
    spec, config = pooled_session(SEED)
    result = _on_machine(spec, config, fidelity=fidelity)
    assert (result.warp is not None) == (fidelity == "adaptive")
    return result


def _saved(tmp_path):
    original = _on_machine(_spec())
    path = tmp_path / "session.json"
    save_session(original, path)
    loaded = load_session(path)
    assert loaded == original
    return loaded


SESSIONS = {
    "machine": lambda tmp_path: _on_machine(_spec()),
    "campaign": lambda tmp_path: api.run(
        _spec(), options=RunOptions(cache=False)),
    "traced": lambda tmp_path: api.run(
        _spec(), options=RunOptions(cache=False, trace=8)),
    "live": lambda tmp_path: api.run(
        _spec(), options=RunOptions(live=True)),
    "pooled-exact": lambda tmp_path: _pooled("exact"),
    "pooled-adaptive": lambda tmp_path: _pooled("adaptive"),
    "aggregated": lambda tmp_path: _on_machine(
        _spec(ProfilingMode.AGGREGATED)),
    "saved": _saved,
}


def round_trip(result):
    document = json.loads(json.dumps(result_to_document(result)))
    return result_from_document(document)


@pytest.mark.parametrize("kind", list(SESSIONS))
def test_document_round_trip_is_identity(kind, tmp_path):
    result = SESSIONS[kind](tmp_path)
    assert result.final is not None
    if kind == "traced":
        assert result.trace is not None and result.trace.traces
    if kind == "aggregated":
        assert not result.epochs
    rebuilt = round_trip(result)
    assert len(rebuilt.epochs) == len(result.epochs)
    for got, want in zip(rebuilt.epochs, result.epochs):
        assert got.snapshot == want.snapshot, f"epoch {want.epoch}"
        assert got.path_map == want.path_map, f"epoch {want.epoch}"
        assert got.stalls == want.stalls, f"epoch {want.epoch}"
        assert got.queues == want.queues, f"epoch {want.epoch}"
    assert rebuilt.final == result.final
    assert rebuilt.flows == result.flows
    assert rebuilt.trace == result.trace
    assert rebuilt.warp == result.warp
    assert rebuilt == result


def test_campaign_decodes_only_pool_results_and_cache_hits(
        monkeypatch, tmp_path):
    decoded = []
    decode = runner.result_from_document

    def counting(document):
        decoded.append(document)
        return decode(document)

    monkeypatch.setattr(runner, "result_from_document", counting)
    jobs = [CampaignJob(spec=_spec(app=app, num_ops=400), config=CONFIG,
                        tag=app)
            for app in ("541.leela_r", "519.lbm_r")]

    # Serial, cache off: each job keeps the result it just computed.
    inline = run_campaign(jobs, parallel=False, cache=False)
    assert [job.status for job in inline.jobs] == ["ok", "ok"]
    assert decoded == []
    # A pool worker sends the document only: one decode per job.
    pooled = run_campaign(jobs, workers=1, timeout=120.0, cache=False)
    assert [job.status for job in pooled.jobs] == ["ok", "ok"]
    assert len(decoded) == 2
    # Filling the cache decodes nothing; each hit decodes once.
    cache = ResultCache(tmp_path / "cache")
    run_campaign(jobs, parallel=False, cache=cache)
    assert len(decoded) == 2
    hits = run_campaign(jobs, parallel=False, cache=cache)
    assert hits.cache_hits == 2
    assert len(decoded) == 4
    want = [api.counters(r) for r in inline.results]
    assert [api.counters(r) for r in pooled.results] == want
    assert [api.counters(r) for r in hits.results] == want
