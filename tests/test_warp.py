"""Adaptive-fidelity fast-forwarding: detector, engine, and end-to-end.

The warp layer (``repro.sim.warp``) may only change *how fast* a
steady-state session simulates, never *what* it reports beyond the
advertised tolerance.  These tests pin the three layers separately -
the steady-state detector's arming/reset behaviour, the engine's
warp-aware ``elapsed()`` bookkeeping, ``Core.skip_ops`` accounting -
and then the end-to-end contracts: adaptive stays within tolerance of
exact on a constant-rate workload, never fires on a phase-changing one,
and non-exact fidelity always splits the cache key.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunOptions, api
from repro.core.persistence import result_from_document, result_to_document
from repro.core.spec import AppSpec, ProfileSpec
from repro.exec.runner import CampaignJob
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.topology import spr_config
from repro.sim.warp import (
    SteadyStateDetector,
    WarpReport,
    WarpSpec,
    coerce_fidelity,
    fidelity_token,
)
from repro.workloads import PhasedWorkload, SequentialStream


def steady_spec(num_ops=20000, *, gap=2.0, seed=3, epoch_cycles=20_000.0):
    """A genuinely constant-rate session: the 64 MiB working set defeats
    every cache level, so per-epoch deltas stabilise immediately."""
    workload = SequentialStream(num_ops=num_ops, working_set_bytes=64 << 20,
                                gap=gap, seed=seed)
    machine = Machine(spr_config(num_cores=2))
    app = AppSpec(workload=workload, core=0,
                  membind=machine.cxl_node.node_id)
    return ProfileSpec(apps=[app], epoch_cycles=epoch_cycles,
                       max_epochs=100000)


def phased_spec(num_ops_per_phase=1500, phases=8):
    """A phase-changing session: the op rate flips every ~2 epochs."""
    parts = [
        SequentialStream(num_ops=num_ops_per_phase,
                         working_set_bytes=64 << 20,
                         gap=(1.0 if i % 2 == 0 else 24.0), seed=11 + i)
        for i in range(phases)
    ]
    workload = PhasedWorkload("phased", parts)
    machine = Machine(spr_config(num_cores=2))
    app = AppSpec(workload=workload, core=0,
                  membind=machine.cxl_node.node_id)
    return ProfileSpec(apps=[app], epoch_cycles=20_000.0, max_epochs=100000)


# -- spec / token ------------------------------------------------------------


def test_coerce_fidelity_values():
    assert coerce_fidelity(None) is None
    assert coerce_fidelity("exact") is None
    assert coerce_fidelity("adaptive") == WarpSpec()
    spec = WarpSpec(skip_epochs=16)
    assert coerce_fidelity(spec) is spec
    with pytest.raises(ValueError):
        coerce_fidelity("turbo")
    with pytest.raises(ValueError):
        coerce_fidelity(3)


def test_fidelity_token_shapes():
    assert fidelity_token(None) is None
    assert fidelity_token("exact") is None
    assert fidelity_token("adaptive") == "adaptive"
    assert fidelity_token(WarpSpec()) == "adaptive"
    custom = fidelity_token(WarpSpec(skip_epochs=16))
    assert isinstance(custom, dict) and custom["skip_epochs"] == 16


def test_warp_spec_round_trip():
    spec = WarpSpec(steady_epochs=4, skip_epochs=12, tolerance=0.1,
                    min_magnitude=2.0)
    assert WarpSpec.from_dict(spec.to_dict()) == spec


def test_fidelity_splits_the_cache_key():
    config = spr_config(num_cores=2)
    base = CampaignJob(spec=steady_spec(), config=config).key()
    explicit = CampaignJob(spec=steady_spec(), config=config,
                           fidelity="exact").key()
    adaptive = CampaignJob(spec=steady_spec(), config=config,
                           fidelity="adaptive").key()
    tuned = CampaignJob(spec=steady_spec(), config=config,
                        fidelity=WarpSpec(skip_epochs=16)).key()
    # Exact keys are byte-identical to the pre-warp format: old cache
    # entries stay valid.  Every non-exact fidelity keys its own entry.
    assert base == explicit
    assert len({base, adaptive, tuned}) == 3


# -- detector ----------------------------------------------------------------


def test_detector_arms_on_agreeing_epochs():
    spec = WarpSpec(steady_epochs=3)
    detector = SteadyStateDetector(spec)
    delta = {("core0", "inst_retired.any"): 1000.0,
             ("cha0", "occupancy.rd"): 40000.0}
    for _ in range(2):
        detector.observe(dict(delta))
        assert not detector.armed
    detector.observe(dict(delta))
    assert detector.armed
    steady = detector.steady_delta
    assert steady[("core0", "inst_retired.any")] == pytest.approx(1000.0)


def test_detector_resets_on_rate_change():
    spec = WarpSpec(steady_epochs=3, tolerance=0.2)
    detector = SteadyStateDetector(spec)
    for _ in range(3):
        detector.observe({("core0", "inst_retired.any"): 1000.0})
    assert detector.armed
    detector.observe({("core0", "inst_retired.any"): 3000.0})
    assert not detector.armed


def test_detector_ignores_tiny_counters():
    spec = WarpSpec(steady_epochs=3, min_magnitude=8.0)
    detector = SteadyStateDetector(spec)
    for i in range(3):
        detector.observe({
            ("core0", "inst_retired.any"): 1000.0,
            # Jitters wildly but stays below min_magnitude: irrelevant.
            ("core0", "machine_clears"): float(i % 2),
        })
    assert detector.armed


@given(st.floats(min_value=100.0, max_value=1e6),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=50, deadline=None)
def test_detector_constant_stream_always_arms(magnitude, steady_epochs):
    detector = SteadyStateDetector(WarpSpec(steady_epochs=steady_epochs))
    for _ in range(steady_epochs):
        detector.observe({("core0", "x"): magnitude})
    assert detector.armed
    assert detector.steady_delta[("core0", "x")] == pytest.approx(magnitude)


# -- engine bookkeeping ------------------------------------------------------


def test_elapsed_without_warps_is_raw():
    engine = Engine()
    assert engine.elapsed(10.0, 250.0) == pytest.approx(240.0)


def test_elapsed_excludes_warped_spans():
    engine = Engine()
    engine.run(until=100.0)
    engine.fast_forward(1000.0)  # clock: 100 -> 1100
    engine.run(until=1150.0)
    # A stall that started before the jump must not bill the jumped span.
    assert engine.elapsed(50.0, engine.now) == pytest.approx(100.0)
    # One fully inside the post-jump era is untouched.
    assert engine.elapsed(1120.0, engine.now) == pytest.approx(30.0)
    # Multiple warps accumulate.
    engine.fast_forward(500.0)
    assert engine.elapsed(50.0, engine.now) == pytest.approx(100.0)


def test_skip_ops_books_retirement():
    machine = Machine(spr_config(num_cores=2))
    workload = SequentialStream(num_ops=100, working_set_bytes=1 << 20,
                                gap=2.0, seed=1)
    workload.install(machine, machine.cxl_node.node_id)
    machine.pin(0, iter(workload))
    machine.run(until=2_000.0)  # drain a few ops, stay mid-stream
    core = machine.cores[0]
    before_ops = core.ops_completed
    before_inst = machine.pmu.get(core.scope, "inst_retired.any")
    skipped = core.skip_ops(10)
    assert 0 < skipped <= 10
    assert core.ops_completed == before_ops + skipped
    booked = machine.pmu.get(core.scope, "inst_retired.any") - before_inst
    # 1 + gap instructions per op, by the same accounting _op_done uses.
    assert booked == pytest.approx(skipped * 3.0)
    # Exhausted workloads yield fewer than asked, then zero.
    assert core.skip_ops(10**6) < 10**6
    assert core.skip_ops(10) == 0


# -- end-to-end --------------------------------------------------------------

ADAPTIVE = RunOptions(fidelity="adaptive")


def _summed(result):
    return api.counters(result)


def test_adaptive_within_tolerance_of_exact():
    exact = api.run(steady_spec())
    adaptive = api.run(steady_spec(), options=ADAPTIVE)
    assert adaptive.warp is not None and adaptive.warp.events
    assert len(adaptive.epochs) < len(exact.epochs)
    verified = [e.verified for e in adaptive.warp.events
                if e.verified is not None]
    assert verified.count(True) >= len(verified) - 1
    se, sa = _summed(exact), _summed(adaptive)
    # Retirement totals are exact bookkeeping even across warps.
    key = ("core0", "app.ops_completed")
    assert sa[key] == pytest.approx(se[key], rel=0.01)
    # Extrapolated counters stay within the spec tolerance.
    tolerance = WarpSpec().tolerance
    for scope, event in [("core0", "inst_retired.any"),
                         ("core0", "cycle_activity.stalls_l3_miss"),
                         ("cxl1", "unc_cxlcm_rxc_pack_buf_inserts.mem_req")]:
        a, b = se[(scope, event)], sa[(scope, event)]
        assert b == pytest.approx(a, rel=tolerance), (scope, event)


def test_adaptive_never_warps_phase_changes():
    result = api.run(phased_spec(), options=ADAPTIVE)
    assert result.warp is None or not result.warp.events


@given(st.sampled_from([1.0, 2.0, 4.0]), st.integers(min_value=1, max_value=4))
@settings(max_examples=4, deadline=None)
def test_adaptive_constant_rate_property(gap, seed):
    """Property: whatever the (constant) rate, adaptive tracks exact."""
    exact = api.run(steady_spec(num_ops=12000, gap=gap, seed=seed))
    adaptive = api.run(steady_spec(num_ops=12000, gap=gap, seed=seed),
                       options=ADAPTIVE)
    se, sa = _summed(exact), _summed(adaptive)
    key = ("core0", "inst_retired.any")
    assert sa[key] == pytest.approx(se[key], rel=WarpSpec().tolerance)
    if adaptive.warp is not None:
        assert adaptive.warp.cycles_skipped >= 0.0


def test_exact_runs_unchanged_by_default():
    result = api.run(steady_spec(num_ops=2000))
    assert result.warp is None
    assert not any(e.snapshot.warped for e in result.epochs)


def test_warp_report_round_trips_through_persistence():
    result = api.run(steady_spec(), options=ADAPTIVE)
    assert result.warp is not None
    document = result_to_document(result)
    assert document["warp"]["spec"] == WarpSpec().to_dict()
    rebuilt = result_from_document(document)
    assert isinstance(rebuilt.warp, WarpReport)
    assert rebuilt.warp.epochs_skipped == pytest.approx(
        result.warp.epochs_skipped)
    warped = [e for e in rebuilt.epochs if e.snapshot.warped]
    assert len(warped) == sum(1 for e in result.epochs if e.snapshot.warped)
    # Exact sessions keep the pre-warp document shape.
    exact_doc = result_to_document(api.run(steady_spec(num_ops=2000)))
    assert "warp" not in exact_doc
    assert not any("warped" in e for e in exact_doc["epochs"])


def test_adaptive_respects_the_epoch_horizon():
    """max_epochs bounds simulated time; a warp may overshoot the
    horizon by at most one skip span (the warp that crossed it)."""
    spec = steady_spec(num_ops=10**9)  # never exhausts; horizon-bound
    bounded = ProfileSpec(apps=spec.apps, epoch_cycles=spec.epoch_cycles,
                          max_epochs=40)
    result = api.run(bounded, options=ADAPTIVE)
    assert result.warp is not None and result.warp.events
    slack = WarpSpec().skip_epochs
    assert result.epochs[-1].epoch <= 40 + slack
    assert result.total_cycles <= (40 + slack) * bounded.epoch_cycles
    # Far fewer epochs were simulated than the horizon spans.
    assert len(result.epochs) < 40
    assert not math.isnan(result.total_cycles)
