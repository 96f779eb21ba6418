"""RunOptions: one carrier for the api verbs' execution knobs."""

from __future__ import annotations

import pytest

from repro import RunOptions, api
from repro.core import AppSpec, ProfileSpec
from repro.core.spec import TraceSpec
from repro.options import UNSET, apply_trace, coerce_trace, resolve_options
from repro.sim import Machine
from repro.workloads import SequentialStream


def _spec(num_ops: int = 400) -> ProfileSpec:
    workload = SequentialStream(
        "opt-seq", 1 << 18, num_ops=num_ops, seed=5, vpn_base=1 << 24
    )
    return ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=0)],
        epoch_cycles=20000.0,
    )


# -- normalisation -----------------------------------------------------------


def test_unset_fields_take_per_verb_defaults():
    opts = resolve_options(
        RunOptions(), api="x", defaults={"cache": True, "retries": 1}
    )
    assert opts["cache"] is True and opts["retries"] == 1


def test_explicit_none_overrides_default():
    opts = resolve_options(
        RunOptions(cache=None), api="x", defaults={"cache": True}
    )
    assert opts["cache"] is None


def test_unsupported_field_raises_when_set():
    with pytest.raises(ValueError, match="not supported"):
        resolve_options(
            RunOptions(retries=1), api="fleety", defaults={"cache": None}
        )


@pytest.mark.parametrize(
    "field,bad",
    [("max_events", 0), ("max_events", 2.5), ("timeout", -1), ("retries", -2),
     ("trace", "yes")],
)
def test_invalid_values_rejected(field, bad):
    with pytest.raises(ValueError):
        resolve_options(
            RunOptions(**{field: bad}), api="x", defaults={field: None}
        )


def test_coerce_trace_forms():
    assert coerce_trace(None) is None
    assert coerce_trace(False) is None
    assert coerce_trace(True) == TraceSpec()
    assert coerce_trace(16) == TraceSpec(sample_every=16)
    ts = TraceSpec(sample_every=2, max_requests=10)
    assert coerce_trace(ts) is ts


def test_apply_trace_never_mutates_the_input_spec():
    spec = _spec()
    traced = apply_trace(spec, TraceSpec(sample_every=8))
    assert spec.trace is None
    assert traced is not spec and traced.trace == TraceSpec(sample_every=8)
    assert apply_trace(spec, None) is spec


def test_replace_returns_updated_frozen_copy():
    opts = RunOptions(cache=False)
    bigger = opts.replace(max_events=100)
    assert bigger.cache is False and bigger.max_events == 100
    assert opts.max_events is UNSET


# -- wiring through the verbs ------------------------------------------------


def test_run_accepts_options_and_traces(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = api.run(_spec(), options=RunOptions(cache=False, trace=4))
    assert result.trace is not None
    assert result.trace.sample_every == 4


def test_options_have_one_spelling():
    # Execution options travel on RunOptions only; the verbs take no
    # per-field keywords, and the fleet forwards no shard options.
    with pytest.raises(TypeError):
        api.run(_spec(), cache=False)
    with pytest.raises(TypeError):
        api.run_many([_spec()], retries=0)
    with pytest.raises(TypeError):
        api.fleet_run_many([_spec()], ["h:1"], job_timeout=5.0)
    with pytest.raises(TypeError):
        api.fleet_run_many([_spec()], ["h:1"], priority=1)


def test_run_machine_rejects_campaign_only_options():
    with pytest.raises(ValueError, match="campaign runner"):
        api.run(_spec(), machine=Machine(), options=RunOptions(retries=2))


def test_run_many_applies_budget_to_wrapped_specs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    campaign = api.run_many(
        [_spec()],
        options=RunOptions(cache=False, retries=0, max_events=10),
        parallel=False,
    )
    record = campaign.jobs[0]
    assert not record.ok and record.failure == "budget_exceeded"


def test_run_many_does_not_mutate_prebuilt_jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from repro.exec.runner import CampaignJob

    job = CampaignJob(spec=_spec())
    api.run_many(
        [job],
        options=RunOptions(cache=False, retries=0, trace=4, max_events=10**7),
        parallel=False,
    )
    assert job.spec.trace is None and job.max_events is None


def test_fleet_rejects_cache_and_retries():
    for bad in (RunOptions(cache=True), RunOptions(retries=1)):
        with pytest.raises(ValueError, match="not supported"):
            api.fleet_run_many([_spec()], ["h:1"], options=bad)


def test_runoptions_exported_from_package_root():
    import repro

    assert repro.RunOptions is RunOptions
