"""Unit and property tests for the discrete-event engine.

The stage network relies on one ordering contract: events run in
(time, insertion) order, so equal-timestamp events are FIFO, including
events a callback schedules at the running time.  Around it sit the
sub-epsilon past-drift clamp, event budgets that compose across resumed
``run()`` calls, ``fast_forward``, which shifts every pending event by
the warp delta, and ``poll``, which must schedule exactly like the
``after`` retry chain it replaces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.sim.engine import Engine, SimulationBudgetExceeded, Waiter


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.at(10.0, lambda: order.append("b"))
    engine.at(5.0, lambda: order.append("a"))
    engine.at(20.0, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 20.0


def test_same_time_events_preserve_insertion_order():
    engine = Engine()
    order = []
    for tag in range(5):
        engine.at(7.0, lambda t=tag: order.append(t))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_after_is_relative_to_now():
    engine = Engine()
    seen = []
    engine.at(100.0, lambda: engine.after(50.0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [150.0]


def test_scheduling_in_the_past_raises():
    engine = Engine()
    engine.at(10.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.at(5.0, lambda: None)


def test_negative_delay_raises():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.after(-1.0, lambda: None)


def test_run_until_stops_clock_exactly():
    engine = Engine()
    fired = []
    engine.at(10.0, lambda: fired.append(10))
    engine.at(100.0, lambda: fired.append(100))
    engine.run(until=50.0)
    assert fired == [10]
    assert engine.now == 50.0
    # Remaining event still pending and runs later.
    engine.run()
    assert fired == [10, 100]


def test_run_until_advances_clock_when_idle():
    engine = Engine()
    engine.run(until=123.0)
    assert engine.now == 123.0


def test_max_events_bound():
    engine = Engine()
    count = []
    for i in range(10):
        engine.at(float(i), lambda: count.append(1))
    with pytest.raises(SimulationBudgetExceeded) as exc_info:
        engine.run(max_events=3)
    assert len(count) == 3
    assert exc_info.value.events_executed == 3
    # State stays consistent: the remaining events run on an unbounded call.
    engine.run()
    assert len(count) == 10


def test_events_can_schedule_more_events():
    engine = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            engine.after(1.0, lambda: chain(n + 1))

    engine.at(0.0, lambda: chain(0))
    engine.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert engine.now == 5.0


def test_waiter_fifo_wakeup():
    engine = Engine()
    waiter = Waiter(engine)
    order = []
    waiter.wait(lambda: order.append("first"))
    waiter.wait(lambda: order.append("second"))
    waiter.wake_one()
    engine.run()
    assert order == ["first"]
    waiter.wake_one()
    engine.run()
    assert order == ["first", "second"]


def test_waiter_wake_all():
    engine = Engine()
    waiter = Waiter(engine)
    seen = []
    for i in range(4):
        waiter.wait(lambda i=i: seen.append(i))
    waiter.wake_all()
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert len(waiter) == 0


def test_wake_on_empty_waiter_is_noop():
    engine = Engine()
    waiter = Waiter(engine)
    waiter.wake_one()
    waiter.wake_all()
    assert engine.pending_events == 0


def test_sub_epsilon_past_drift_is_clamped():
    # Chains of fractional after() delays accumulate float error; a target
    # a few ULPs below now must be clamped to now, not rejected.
    engine = Engine()
    seen = []
    engine.at(0.1 + 0.1 + 0.1, lambda: None)  # 0.30000000000000004
    engine.run()
    engine.at(0.3, lambda: seen.append(engine.now))  # a hair in the past
    engine.run()
    assert seen == [pytest.approx(0.3)]
    assert engine.now >= 0.3


def test_sub_epsilon_clamp_scales_with_magnitude():
    engine = Engine()
    engine.at(1e12, lambda: None)
    engine.run()
    # One ULP below now at 1e12 is ~1.2e-4 absolute: still drift, clamped.
    import math
    engine.at(math.nextafter(1e12, 0.0), lambda: None)
    engine.run()


def test_genuinely_past_times_still_raise():
    engine = Engine()
    engine.at(10.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.at(9.9, lambda: None)


# -- FIFO ordering -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.0]),
        min_size=1,
        max_size=40,
    )
)
def test_equal_timestamp_events_keep_fifo_order(times):
    engine = Engine()
    order = []
    for tag, time in enumerate(times):
        engine.at(time, lambda t=tag: order.append(t))
    engine.run()
    # Exactly a stable sort by timestamp: FIFO within one timestamp,
    # timestamps ascending.
    expected = [i for i, _ in sorted(enumerate(times), key=lambda p: p[1])]
    assert order == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 3.0, 3.0, 5.0]),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_mid_drain_same_time_appends_keep_fifo_order(plan):
    """Events scheduled at the running time join the back of that time.

    Each outer event schedules ``extra`` inner events at its own
    timestamp; they run after every event already queued at that time.
    """
    engine = Engine()
    order = []
    for tag, (time, extra) in enumerate(plan):
        def outer(t=time, n=extra, base=tag):
            order.append(("outer", base))
            for k in range(n):
                engine.at(
                    t, lambda b=base, kk=k: order.append(("inner", b, kk))
                )
        engine.at(time, outer)
    engine.run()
    expected = []
    for time in sorted({t for t, _ in plan}):
        here = [(tag, n) for tag, (t, n) in enumerate(plan) if t == time]
        expected += [("outer", tag) for tag, _ in here]
        expected += [("inner", tag, k) for tag, n in here for k in range(n)]
    assert order == expected


# -- past-drift clamping -----------------------------------------------------


def test_at_clamps_subepsilon_past_drift():
    engine = Engine()
    hit = []
    # A target a relative 1e-13 below now: the classic way a chain of
    # fractional stage delays lands a few ULPs before "now".
    def late():
        engine.at(engine.now - engine.now * 1e-13, lambda: hit.append(engine.now))

    engine.at(100.0, late)
    engine.run()
    assert hit and hit[0] == 100.0


def test_at_rejects_genuinely_past_times():
    engine = Engine()
    engine.at(50.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError, match="in the past"):
        engine.at(25.0, lambda: None)


# -- budget composition ------------------------------------------------------


def _load(engine: Engine, n: int = 50) -> None:
    for i in range(n):
        engine.at(float(i), lambda: None)


def test_per_call_max_events_compose_across_resumed_runs():
    engine = Engine()
    _load(engine)
    with pytest.raises(SimulationBudgetExceeded) as e1:
        engine.run(max_events=3)
    assert e1.value.events_executed == 3
    assert engine.events_executed == 3
    with pytest.raises(SimulationBudgetExceeded) as e2:
        engine.run(max_events=3)
    # The second bounded run gets its own fresh allowance of 3.
    assert e2.value.events_executed == 3
    assert engine.events_executed == 6


def test_persistent_budget_spans_run_calls():
    engine = Engine()
    _load(engine)
    engine.set_event_budget(10)
    engine.run(until=4.5)  # executes events at t=0..4 -> 5 events
    assert engine.events_executed == 5
    assert engine.event_budget_remaining == 5
    with pytest.raises(SimulationBudgetExceeded) as exc:
        engine.run()
    assert exc.value.events_executed == 5  # five more, then the ceiling
    assert engine.events_executed == 10
    assert engine.event_budget_remaining == 0


# -- fast_forward ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                   max_size=30),
    split=st.integers(min_value=0, max_value=40),
    delta=st.integers(min_value=1, max_value=10_000),
)
def test_fast_forward_shifts_every_pending_event(times, split, delta):
    """Pending events run at old time + delta, in their old order.

    Integer times and deltas keep every shifted time exact, so the
    expected schedule is a plain stable sort.  ``elapsed`` measured from
    before the jump excludes the warped span: from t=0 every event sees
    its unshifted time, and from the jump it sees its offset from
    ``split``.
    """
    engine = Engine()
    seen = []
    for tag, time in enumerate(times):
        engine.at(float(time), lambda t=tag: seen.append(
            (t, engine.now, engine.elapsed(0.0), engine.elapsed(float(split)))
        ))
    engine.run(until=float(split))
    ran = len(seen)
    pending = engine.pending_events
    engine.fast_forward(float(delta))
    assert engine.now == split + delta
    assert engine.pending_events == pending
    engine.run()
    ordered = sorted(enumerate(times), key=lambda p: p[1])
    before = [(tag, float(t)) for tag, t in ordered if t <= split]
    after = [(tag, float(t)) for tag, t in ordered if t > split]
    assert [(tag, now) for tag, now, _, _ in seen[:ran]] == before
    assert [(tag, now) for tag, now, _, _ in seen[ran:]] == [
        (tag, t + delta) for tag, t in after
    ]
    for (_, old), (_, _, since_zero, since_split) in zip(after, seen[ran:]):
        assert since_zero == old
        assert since_split == old - split


# -- poll: the same schedule as an after() retry chain -----------------------


def _drive_producers(retry, plan, capacity, service, phases):
    """Feed producers into a bounded queue; return the execution log.

    Each producer pushes its items ``gap`` cycles apart; a push into the
    full queue retries every 4 cycles, through ``after(4.0, ...)`` when
    ``retry`` is ``"after"`` and through the poll primitive when it is
    ``"poll"``.  A consumer pops one item every ``service`` cycles.
    Between ``run(until=...)`` calls the engine may ``fast_forward``.
    """
    from repro.sim.queues import MonitoredQueue

    engine = Engine()
    queue = MonitoredQueue(engine, capacity, name="q")
    log = []
    total = sum(count for _, count, _ in plan)
    popped = [0]

    def consume():
        if queue.empty:
            log.append(("idle", engine.now))
        else:
            log.append(("pop", engine.now, queue.pop()))
            popped[0] += 1
        if popped[0] < total:
            engine.after(service, consume)

    def send(producer, index, count, gap):
        if queue.try_push((producer, index)):
            log.append(("push", engine.now, producer, index))
            if index + 1 < count:
                engine.after(gap, lambda: send(producer, index + 1, count, gap))
        elif retry == "after":
            engine.after(4.0, lambda: send(producer, index, count, gap))
        else:
            queue.poll_space(lambda: send(producer, index, count, gap))

    for producer, (start, count, gap) in enumerate(plan):
        engine.at(start, lambda p=producer, c=count, g=gap: send(p, 0, c, g))
    engine.at(0.0, consume)
    try:
        for span, delta in phases:
            engine.run(until=engine.now + span, max_events=5_000)
            log.append(("phase", engine.now, engine.pending_events))
            engine.fast_forward(delta)
        engine.run(max_events=5_000)
    except SimulationBudgetExceeded as exc:
        log.append(("budget", exc.events_executed, engine.now))
    return log, engine.events_executed


@settings(max_examples=150, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0, 6.25]),
            st.integers(min_value=1, max_value=6),
            st.sampled_from([0.0, 0.5, 1.0, 4.0, 5.75]),
        ),
        min_size=1,
        max_size=8,
    ),
    capacity=st.integers(min_value=1, max_value=3),
    service=st.sampled_from([1.0, 2.5, 4.0, 6.0, 9.5]),
    phases=st.lists(
        st.tuples(
            st.sampled_from([1.0, 3.5, 8.0, 13.0, 30.0]),
            st.sampled_from([0.0, 2.0, 7.25, 1000.0]),
        ),
        max_size=3,
    ),
)
def test_poll_schedule_matches_after_retry_chain(plan, capacity, service, phases):
    """The poll primitive is a cheaper spelling of the same retry chain.

    Same pushes and pops at the same times in the same order, the same
    ``events_executed``, across ``fast_forward`` warps with polls still
    pending.  Times and deltas are dyadic, so every sum is exact.
    """
    after = _drive_producers("after", plan, capacity, service, phases)
    poll = _drive_producers("poll", plan, capacity, service, phases)
    assert poll == after


# -- stopping and resuming: the same schedule as one unbounded run ------------

#: One scheduled callback: how it is scheduled, its delay, whether it
#: flips the shared box a poll waits on, and the callbacks it schedules.
_leaf = st.tuples(
    st.sampled_from(["at", "after", "post", "poll"]),
    st.sampled_from([0, 0, 1, 2, 3]),
    st.booleans(),
    st.just(()),
)
_node = st.recursive(
    _leaf,
    lambda children: st.tuples(
        st.sampled_from(["at", "after", "post", "poll"]),
        st.sampled_from([0, 0, 1, 2, 3]),
        st.booleans(),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=12,
)


def _run_plan(roots, stops):
    """Run ``roots`` to completion, stopping at each of ``stops`` first.

    A stop is ``("until", cycles past now)`` or ``("max", events)``.
    Each callback logs its label and the clock; ``poll`` callbacks wait
    until the shared box is empty, and ``flip`` callbacks fill or empty
    it.  Returns the log, ``events_executed`` and ``pending_events``.
    """
    engine = Engine()
    box = []
    log = []
    labels = iter(range(10_000))

    def schedule(spec):
        kind, delay, flip, children = spec
        label = next(labels)

        def fire():
            log.append((label, engine.now))
            if flip:
                if box:
                    box.pop()
                else:
                    box.append(label)
            for child in children:
                schedule(child)

        if kind == "at":
            engine.at(engine.now + delay, fire)
        elif kind == "after":
            engine.after(float(delay), fire)
        elif kind == "post":
            engine.post(fire)
        else:
            engine.poll(box, 1, fire)

    for root in roots:
        schedule(root)
    for kind, value in stops:
        try:
            if kind == "until":
                engine.run(until=engine.now + value)
            else:
                engine.run(max_events=value)
        except SimulationBudgetExceeded:
            pass
    # A poll on a box left full re-checks forever, so both runs end at
    # one fixed cycle, past every other event of any plan.
    engine.run(until=1_000.0)
    return log, engine.events_executed, engine.pending_events


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(_node, min_size=1, max_size=6),
    stops=st.lists(
        st.one_of(
            st.tuples(st.just("until"),
                      st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 6.0])),
            st.tuples(st.just("max"), st.integers(min_value=0, max_value=6)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_stopped_and_resumed_runs_match_one_unbounded_run(roots, stops):
    """``run(until=...)`` and ``run(max_events=...)`` stops change nothing.

    The drain loop pops an event before it checks ``until``; an event
    past the stop goes back with its own sequence number.  Integer event
    times and stops between them put same-time groups right after a
    stop, so a popped entry that lost its place (or was dropped) changes
    the log.
    """
    assert _run_plan(roots, stops) == _run_plan(roots, ())
