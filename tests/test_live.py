"""repro.live: operator value pins, storage order, event logs, streaming.

The online operators and the series functions folded over them are one
implementation, pinned to recorded values.  The live materializer tests
record its rolling state at every epoch of a run and check it against
the batch operators over the matching prefix of the finished session's
``PFMaterializer.from_result`` series, so a dashboard sees the same
numbers a post-hoc query would compute.  The serve daemon's event logs
and ``/v1/live`` are tested over HTTP.
"""

import dataclasses
import json
import sys
import threading
import time

import pytest

from repro import RunOptions, api
from repro.core import AppSpec, ProfileSpec
from repro.core.materializer import PATH_SET, PFMaterializer
from repro.core.profiler import PathFinder
from repro.core.snapshot import Snapshot
from repro.exec import cxl_node_id
from repro.live import (
    LiveMaterializer,
    LiveSpec,
    coerce_live,
    epoch_digest,
    render_live_event,
)
from repro.serve.jobs import DAEMON_LOG_KEEP, EventLog
from repro.sim import Machine, spr_config
from repro.tsdb import (
    OnlineHoltWinters,
    RollingMean,
    StreamingPearson,
    TimeSeriesDB,
    holt_winters,
    moving_average,
    pearsonr,
)
from repro.workloads import SequentialStream, build_app

# -- operator value pins -----------------------------------------------------
#
# Each series function in repro.tsdb is a fold over its online operator,
# so comparing the two would compare one implementation with itself.
# These are the values the numpy batch operators computed for the same
# inputs before the fold replaced them; the fold and the online operator
# must stay within a relative 1e-9 of them at every prefix.

PIN_REL = 1e-9

MA_SERIES = [((7 * i) % 11 - 5) / 3.0 + i / 7.0 for i in range(16)]
MA_WINDOW_4 = [
    -1.6666666666666667, -0.4285714285714286, -0.41269841269841273,
    0.2142857142857143, 0.8571428571428572, 0.5833333333333334,
    1.2261904761904763, 0.9523809523809522, 0.6785714285714284,
    1.3214285714285712, 1.0476190476190474, 0.7738095238095237,
    1.4166666666666667, 1.1428571428571428, 1.785714285714286,
    2.4285714285714284,
]

HW_SERIES = [10 + 3 * ((i % 4) - 1.5) + 0.4 * i + ((5 * i) % 7) / 9.0
             for i in range(12)]
# forecast(horizon=2) after each prefix; the seasonal state takes over
# at the eighth point (two full seasons of 4).
HW_SEASON_4 = [
    [5.5, 5.5],
    [13.411111111111111, 17.366666666666667],
    [16.86111111111111, 20.7],
    [20.017499999999995, 23.698888888888884],
    [15.735847222222217, 17.579611111111106],
    [14.465199305555553, 15.590252777777774],
    [15.367317673611108, 16.44092458333333],
    [8.089708658504394, 11.72372261200716],
    [12.481523095090415, 16.01335996373788],
    [15.982036618595776, 19.557916911348983],
    [19.31681533148395, 10.211161693078706],
    [10.373565060947472, 13.974960960077823],
]
HW_NON_SEASONAL = HW_SEASON_4[:7] + [
    [17.69716809548611, 19.060677354166664],
    [13.573629203211805, 13.670896580902777],
    [12.92970426548177, 12.855927262690972],
    [14.598841712350044, 14.927275736403645],
    [18.156361956709453, 19.22996972391055],
]

XS = [(3 * i % 8) / 3.0 + i / 5 for i in range(10)]
YS = [((5 * i) % 9) / 7.0 - i / 11 for i in range(10)]
PEARSON = [
    0.0, 1.0, -0.05241424183609593, -0.1165474317849921,
    -0.30806719781297515, 0.06111204438151795, 0.025616439052087284,
    0.15391353034994265, 0.17439527887472833, -0.09068360079844259,
]


def test_rolling_mean_matches_moving_average():
    assert moving_average(MA_SERIES, 4) == pytest.approx(MA_WINDOW_4,
                                                         rel=PIN_REL)
    rolling = RollingMean(4)
    for value, want in zip(MA_SERIES, MA_WINDOW_4):
        got = rolling.push(value)
        assert got == pytest.approx(want, rel=PIN_REL)
        assert rolling.value == got


def test_online_holt_winters_matches_batch():
    for season, pins in ((4, HW_SEASON_4), (None, HW_NON_SEASONAL)):
        online = OnlineHoltWinters(season_length=season)
        for n, want in enumerate(pins, start=1):
            online.push(HW_SERIES[n - 1])
            assert online.forecast(2) == pytest.approx(want, rel=PIN_REL)
            batch = holt_winters(HW_SERIES[:n], horizon=2,
                                 season_length=season)
            assert batch == pytest.approx(want, rel=PIN_REL)
        assert online.seasonal_active == (season is not None)


def test_holt_winters_season_length_zero_is_non_seasonal():
    for n in range(1, len(HW_SERIES) + 1):
        forecast = holt_winters(HW_SERIES[:n], horizon=2, season_length=0)
        assert forecast == pytest.approx(HW_NON_SEASONAL[n - 1],
                                         rel=PIN_REL)
        assert forecast == holt_winters(HW_SERIES[:n], horizon=2)


def test_streaming_pearson_matches_batch():
    streaming = StreamingPearson()
    assert streaming.value == 0.0
    for n, want in enumerate(PEARSON, start=1):
        streaming.push(XS[n - 1], YS[n - 1])
        assert streaming.value == pytest.approx(want, rel=PIN_REL)
        assert pearsonr(XS[:n], YS[:n]) == pytest.approx(want, rel=PIN_REL)


def test_pearsonr_of_a_constant_series_is_exactly_zero():
    # 1/3 has no exact binary form, so a mean-then-deviation formula
    # leaves residue of about 1e-17; the co-moments stay exactly zero.
    third = [1 / 3] * 10
    assert pearsonr(third, YS) == 0.0
    assert pearsonr(YS, third) == 0.0
    assert pearsonr(third, third) == 0.0


def test_online_holt_winters_empty_forecast_before_first_point():
    assert OnlineHoltWinters().forecast(3) == []
    assert OnlineHoltWinters(season_length=4).forecast(1) == []


# -- storage order ------------------------------------------------------------


def test_out_of_order_stragglers_merge_on_read():
    db = TimeSeriesDB()
    db.insert("m", 10.0, fields={"v": 1.0})
    db.insert("m", 20.0, fields={"v": 2.0})
    before = db.from_("m")
    assert before.timestamps() == [10.0, 20.0]
    db.insert("m", 15.0, fields={"v": 3.0})  # straggler
    after = db.from_("m")
    assert after.timestamps() == [10.0, 15.0, 20.0]
    # A query taken before the insert still reads the records as they
    # were.
    assert before.timestamps() == [10.0, 20.0]


def test_descending_inserts_end_up_sorted():
    db = TimeSeriesDB()
    n = 2_000
    for i in range(n, 0, -1):
        db.insert("m", float(i), fields={"v": float(i)})
    assert db.from_("m").timestamps() == [float(i) for i in range(1, n + 1)]


# -- event logs -----------------------------------------------------------------


def test_event_log_reader_far_behind_skips_to_the_oldest_held_event():
    log = EventLog(keep=DAEMON_LOG_KEEP)
    for i in range(DAEMON_LOG_KEEP + 6):
        log.append({"i": i})
    # A reader at position 0 is 1,030 events behind: it skips the 6
    # events the log no longer holds.
    start, events = log.read(0)
    assert start == 6
    assert [e["i"] for e in events] == list(range(6, DAEMON_LOG_KEEP + 6))
    # Past the bulk trim, positions stay absolute and a reader within
    # the bound reads only what is new.
    for i in range(DAEMON_LOG_KEEP + 6, 5 * DAEMON_LOG_KEEP):
        log.append({"i": i})
    assert len(log) == 5 * DAEMON_LOG_KEEP
    start, events = log.read(len(log) - 3)
    assert start == len(log) - 3
    assert [e["i"] for e in events] == list(range(len(log) - 3, len(log)))
    start, events = log.read(0)
    assert start == len(log) - DAEMON_LOG_KEEP
    assert len(events) == DAEMON_LOG_KEEP
    # A job's log is unbounded: it never skips.
    job_log = EventLog()
    for i in range(3 * DAEMON_LOG_KEEP):
        job_log.append({"i": i})
    assert job_log.read(0)[0] == 0 and len(job_log.read(0)[1]) == len(job_log)


def test_event_log_close_ends_every_reader():
    log = EventLog()
    woken = []
    log.wakers.extend([lambda: woken.append("a"), lambda: woken.append("b")])
    log.append({"i": 0})
    log.append({"i": 1}, close=True)
    assert log.closed and woken == ["a", "b"] * 2
    # Nothing is appended after close; a reader still gets what is held.
    log.append({"i": 2})
    log.close()
    assert len(log) == 2
    assert [e["i"] for e in log.read(0)[1]] == [0, 1]
    assert log.read(len(log)) == (2, [])


def test_event_log_concurrent_appends_and_reads_lose_nothing():
    # Executor threads and the loop append to the daemon log at once;
    # a bulk trim racing an append would lose or repeat positions.
    writers, per_writer, keep = 4, 3000, 64
    log = EventLog(keep=keep)
    done = threading.Event()
    tallies = []

    def read():
        cursor, seen, skipped = 0, 0, 0
        while True:
            finished = done.is_set()
            start, events = log.read(cursor)
            assert start >= cursor
            skipped += start - cursor
            seen += len(events)
            cursor = start + len(events)
            if finished:
                tallies.append((cursor, seen, skipped))
                return

    def write(w):
        for i in range(per_writer):
            log.append({"w": w, "i": i})

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(2)]
        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        for thread in readers + threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        done.set()
        for thread in readers:
            thread.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in readers + threads)
    total = writers * per_writer
    assert len(log) == total
    assert tallies == [(total, seen, total - seen) for _, seen, _ in tallies]
    start, events = log.read(0)
    assert start == total - keep and len(events) == keep
    # Each writer's newest events are held in the order it appended them.
    for w in range(writers):
        mine = [e["i"] for e in events if e["w"] == w]
        assert mine == sorted(mine)


def test_live_reader_far_behind_skips_and_is_counted():
    from repro.serve import BackgroundServer, ServeClient

    with BackgroundServer(workers=0, queue_depth=4, cache=None) as server:
        client = ServeClient(port=server.port)
        stream = client.live(max_events=1, timeout=30)
        assert next(stream)["event"] == "hello"
        log = server.daemon.store.daemon_log
        appended = threading.Event()

        def burst():
            # One loop callback, so the follower cannot read in between.
            for i in range(DAEMON_LOG_KEEP + 6):
                log.append({"event": "tick", "i": i})
            appended.set()

        server._loop.call_soon_threadsafe(burst)
        assert appended.wait(30)
        assert [e["i"] for e in stream] == [6]
        assert client.metrics()["counters"]["live_events_skipped"] == 6


def test_closing_the_daemon_log_ends_every_live_reader():
    from repro.serve import BackgroundServer, ServeClient

    with BackgroundServer(workers=0, queue_depth=4, cache=None) as server:
        client = ServeClient(port=server.port)
        log = server.daemon.store.daemon_log
        streams = [client.live(timeout=30) for _ in range(2)]
        for stream in streams:
            assert next(stream)["event"] == "hello"
        log.append({"event": "tick", "i": 0})
        log.close()
        for stream in streams:
            assert [e["event"] for e in stream] == ["tick"]
        # A reader that arrives after close ends at once.
        assert [e["event"] for e in client.live(timeout=30)] == ["hello"]
        assert len(log.wakers) == 0


def test_coerce_live():
    assert coerce_live(None) is None
    assert coerce_live(False) is None
    assert coerce_live(True) == LiveSpec()
    spec = LiveSpec(window=3)
    assert coerce_live(spec) is spec
    with pytest.raises(ValueError):
        coerce_live(42)
    with pytest.raises(ValueError):
        LiveSpec(window=0)
    # ``window`` is the one knob.
    with pytest.raises(TypeError):
        LiveSpec(horizon=1)


# -- live profiling end-to-end (in-process) -----------------------------------

WINDOW = 4


def _prefix(batch, pid, dst, t_end, path="DRd"):
    """The query over ``batch``'s hit series of one app up to ``t_end``."""
    return (batch.db.from_(PATH_SET)
            .where(pid=str(pid), path=path, dst=dst)
            .range(stop=t_end))


@pytest.fixture(scope="module")
def live_run():
    """One live profiling run of two co-resident apps, with the rolling
    state recorded at every epoch."""
    machine = Machine(spr_config(num_cores=2))
    node = machine.cxl_node.node_id
    apps = [
        AppSpec(workload=build_app("541.leela_r", num_ops=1200, seed=7),
                core=0, membind=node),
        AppSpec(workload=build_app("505.mcf_r", num_ops=1200, seed=8),
                core=1, membind=node),
    ]
    spec = ProfileSpec(apps=apps, epoch_cycles=25_000.0)
    digests = []
    states = []
    holder = {}

    def on_epoch(digest):
        digests.append(digest)
        materializer = holder["pf"].materializer
        states.append((digest["t_end"], {
            (pid, dst): materializer.rolling_locality(pid, dst=dst)
            for pid in materializer.tracked_pids()
            for dst in ("LLC", "CXL")
        }))

    pf = PathFinder(machine, spec, live=LiveSpec(window=WINDOW),
                    on_epoch=on_epoch)
    holder["pf"] = pf
    result = pf.run()
    return pf, result, digests, states


def test_live_run_uses_live_materializer(live_run):
    pf, result, digests, _ = live_run
    assert isinstance(pf.materializer, LiveMaterializer)
    assert len(digests) == len(result.epochs) > 0


def test_live_rolling_mean_matches_batch_every_epoch(live_run):
    _, result, _, states = live_run
    batch = PFMaterializer.from_result(result)
    mismatches = []
    checked = 0
    for t_end, rolling in states:
        for (pid, dst), state in rolling.items():
            series = _prefix(batch, pid, dst, t_end).values("hits")
            if not series:
                continue
            checked += 1
            want = moving_average(series, WINDOW)[-1]
            got = state["mean"]
            if got != pytest.approx(want, rel=1e-9, abs=1e-9):
                mismatches.append((t_end, pid, dst, got, want))
    assert checked >= len(states)
    assert mismatches == []


def test_live_forecast_matches_batch_over_stored_series(live_run):
    pf, result, _, states = live_run
    batch = PFMaterializer.from_result(result)
    for pid in pf.materializer.tracked_pids():
        # Both apps are CXL-bound: their DRd->LLC series are all zero,
        # so the forecast is checked on the DRd->CXL hits.
        assert any(_prefix(batch, pid, "CXL", None).values("hits"))
    checked = 0
    for t_end, rolling in states:
        for (pid, dst), state in rolling.items():
            if dst != "CXL":
                continue
            series = _prefix(batch, pid, dst, t_end).values("hits")
            assert state["epochs"] == len(series)
            if not series:
                continue
            checked += 1
            want = holt_winters(series, horizon=1)
            assert state["forecast"] == pytest.approx(want, rel=1e-9,
                                                      abs=1e-7)
    assert checked >= len(states)


def test_live_correlation_matches_batch():
    # Streaming Pearson pairs the apps' DRd->LLC hits, so both apps need
    # LLC hits that vary from epoch to epoch: two CXL-bound streams over
    # a 1 MiB working set each.
    machine = Machine(spr_config(num_cores=2))
    node = machine.cxl_node.node_id
    apps = [
        AppSpec(workload=SequentialStream(name=f"stream{core}", num_ops=ops,
                                          working_set_bytes=1 << 20),
                core=core, membind=node)
        for core, ops in enumerate((4000, 5000))
    ]
    rolling = []
    holder = {}

    def on_epoch(digest):
        materializer = holder["pf"].materializer
        pids = materializer.tracked_pids()
        if len(pids) == 2:
            rolling.append((digest["t_end"],
                            materializer.rolling_correlate(*pids)))

    pf = PathFinder(machine, ProfileSpec(apps=apps, epoch_cycles=10_000.0),
                    live=LiveSpec(window=WINDOW), on_epoch=on_epoch)
    holder["pf"] = pf
    result = pf.run()
    pids = pf.materializer.tracked_pids()
    assert len(pids) == 2
    batch = PFMaterializer.from_result(result)
    for pid in pids:
        series = _prefix(batch, pid, "LLC", None).values("hits")
        assert len(set(series)) > 1 and any(series)
    a, b = pids
    assert rolling and rolling[-1][0] == result.total_cycles
    for t_end, got in rolling:
        want = _prefix(batch, a, "LLC", t_end).pearsonr_with(
            _prefix(batch, b, "LLC", t_end), "hits")
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)
    final = batch.correlate(a, b)
    assert final != 0.0
    assert pf.materializer.rolling_correlate(a, b) == pytest.approx(
        final, rel=1e-6, abs=1e-6
    )


def test_live_digests_are_json_safe_and_renderable(live_run):
    _, _, digests, _ = live_run
    for digest in digests:
        json.dumps(digest)
        assert digest["event"] == "epoch"
    line = render_live_event(digests[-1])
    assert "epoch" in line and "culprit=" in line


def test_live_run_samples_queues(live_run):
    _, _, digests, _ = live_run
    hot = [digest["hot_queues"] for digest in digests if "hot_queues" in digest]
    assert hot
    for queues in hot:
        assert 0 < len(queues) <= 5
        occupancy = [q["occupancy"] for q in queues]
        assert occupancy == sorted(occupancy, reverse=True)
        assert all(value > 0.0 for value in occupancy)


def test_live_batch_workflows_still_run_on_live_db(live_run):
    pf, result, _, _ = live_run
    batch = PFMaterializer.from_result(result)
    report = batch.locality(pf.materializer.tracked_pids()[0])
    assert report.hits_series


def test_top_counter_ties_do_not_depend_on_insertion_order(live_run):
    items = [(("core1", "b"), 5.0), (("core0", "z"), -5.0),
             (("core0", "a"), 5.0), (("cha0", "x"), 2.0),
             (("core0", "c"), 5.0), (("core2", "a"), 1.0)]
    digests = []
    for order in (items, items[::-1]):
        epoch = dataclasses.replace(live_run[1].epochs[0], snapshot=Snapshot(
            t_start=0.0, t_end=1.0, delta=dict(order)))
        digests.append(epoch_digest(epoch, LiveMaterializer(), queues=[]))
    assert digests[0] == digests[1]
    assert digests[0]["top_counters"][:4] == [
        ["core0", "a", 5.0], ["core0", "c", 5.0], ["core0", "z", -5.0],
        ["core1", "b", 5.0]]


def test_api_live_run_delivers_one_digest_per_epoch():
    # No explicit machine: api.run builds one and streams in-process.
    workload = build_app("541.leela_r", num_ops=600, seed=11)
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0,
                      membind=cxl_node_id(spr_config()))],
        epoch_cycles=2_000.0,
    )
    digests = []
    result = api.run(spec, options=RunOptions(live=True),
                     on_epoch=digests.append)
    assert len(digests) == result.num_epochs > 1
    for digest in digests:
        json.dumps(digest)
        assert digest["event"] == "epoch"


# -- serving: /v1/live over HTTP ---------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("live-serve-cache")
    from repro.serve import BackgroundServer

    with BackgroundServer(workers=1, queue_depth=8,
                          cache=str(cache_dir)) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    from repro.serve import ServeClient

    return ServeClient(port=server.port)


def serve_spec():
    workload = build_app("541.leela_r", num_ops=600, seed=3)
    app = AppSpec(
        workload=workload, core=0, membind=cxl_node_id(spr_config())
    )
    return ProfileSpec(apps=[app], epoch_cycles=20_000.0)


def test_live_job_streams_epoch_digests_while_in_flight(server, client):
    events = []
    done = threading.Event()

    def consume():
        try:
            for event in client.live(timeout=120):
                events.append(event)
                if event.get("event") in ("done", "failed"):
                    done.set()
                    return
        finally:
            done.set()

    streamer = threading.Thread(target=consume, daemon=True)
    streamer.start()
    time.sleep(0.2)
    job = client.submit_run(serve_spec(), live={"window": 4},
                            cacheable=False, tag="live-e2e")
    final = client.wait(job["job_id"], timeout=300)
    assert final["state"] == "done"
    assert done.wait(timeout=30)
    epochs = [e for e in events if e.get("event") == "epoch"]
    assert len(epochs) == final["num_epochs"] > 0
    for digest in epochs:
        assert digest["job_id"] == job["job_id"]
        assert "rolling" in digest and "culprit" in digest
    # The per-job event log carries the same digests (NDJSON endpoint).
    log = [e for e in client.events(job["job_id"], timeout=60)
           if e.get("event") == "epoch"]
    assert len(log) == final["num_epochs"]


def test_live_stream_honors_max_events(server, client):
    def pump():
        # Lead-in so the streamer is subscribed before the first tick.
        time.sleep(0.3)
        for i in range(20):
            server.daemon.store.daemon_log.append({"event": "tick", "i": i})
            time.sleep(0.05)

    threading.Thread(target=pump, daemon=True).start()
    got = list(client.live(max_events=3, timeout=30))
    assert got[0]["event"] == "hello"
    assert [e["event"] for e in got[1:]] == ["tick"] * 3


def test_live_stream_max_events_zero_sends_only_the_hello(server, client):
    # Ticks land while each stream opens, and frequent thread switches
    # let one land between the stream's start and its first read: a
    # reader that wrote before it checked the cap sent it in about one
    # stream of six.
    stop = threading.Event()

    def pump():
        while not stop.is_set():
            server.daemon.store.daemon_log.append({"event": "tick"})
            time.sleep(0.001)

    pumper = threading.Thread(target=pump, daemon=True)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pumper.start()
    try:
        for _ in range(50):
            got = list(client.live(max_events=0, timeout=30))
            assert [e["event"] for e in got] == ["hello"]
    finally:
        sys.setswitchinterval(switch)
        stop.set()
        pumper.join(10)


def test_live_stream_rejects_negative_and_non_integer_max_events(client):
    from repro.serve import ServeError

    for query in ("max_events=-1", "max_events=-5", "max_events=abc"):
        with pytest.raises(ServeError) as excinfo:
            list(client._stream(f"/v1/live?{query}", timeout=30))
        assert excinfo.value.status == 400
        assert "bad max_events" in str(excinfo.value)
    with pytest.raises(ServeError) as excinfo:
        list(client.live(max_events=-1, timeout=30))
    assert excinfo.value.status == 400


def test_cache_hit_done_and_replayed_recovered_reach_live(tmp_path):
    from repro.core.persistence import spec_to_document
    from repro.durable import JobJournal
    from repro.durable import journal as wal
    from repro.serve import BackgroundServer, ServeClient

    spec = serve_spec()
    journal_dir = tmp_path / "journal"
    with JobJournal(journal_dir, fsync=False) as journal:
        journal.append(wal.ADMITTED, "replayed",
                       {"spec": spec_to_document(spec)})
    with BackgroundServer(workers=1, queue_depth=4,
                          cache=str(tmp_path / "cache"),
                          journal_dir=str(journal_dir)) as server:
        # Replay runs before the listener binds, so no /v1/live reader
        # is open yet; the event is in the daemon log readers follow.
        _, held = server.daemon.store.daemon_log.read(0)
        assert [(e["job_id"], e["event"]) for e in held][0] \
            == ("replayed", "recovered")
        client = ServeClient(port=server.port)
        assert client.wait("replayed", timeout=300)["state"] == "done"
        stream = client.live(timeout=60)
        assert next(stream)["event"] == "hello"
        again = client.submit_run(spec)
        assert again["cache_hit"] is True and again["state"] == "done"
        for event in stream:
            if event.get("job_id") == again["job_id"]:
                break
        assert event["event"] == "done" and event["cache_hit"] is True
        stream.close()


def test_fleet_merged_live_stream(server, client):
    from repro.fleet import FleetCoordinator

    def pump():
        time.sleep(0.3)
        for i in range(20):
            server.daemon.store.daemon_log.append({"event": "tick", "i": i})
            time.sleep(0.05)

    threading.Thread(target=pump, daemon=True).start()
    coordinator = FleetCoordinator([f"127.0.0.1:{server.port}"])
    merged = list(coordinator.live_events(max_events=2, timeout=30))
    ticks = [e for e in merged if e["event"] == "tick"]
    assert len(ticks) == 2
    assert all(e["member"] == f"127.0.0.1:{server.port}" for e in merged)


def test_malformed_live_spec_is_rejected(client):
    from repro.serve import ServeError

    with pytest.raises(ServeError) as excinfo:
        client.submit_run(serve_spec(), live={"window": -1})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit_run(serve_spec(), live={"bogus_knob": 1})
    assert excinfo.value.status == 400
    # A knob LiveSpec no longer has is rejected like any unknown one.
    with pytest.raises(ServeError) as excinfo:
        client.submit_run(serve_spec(), live={"horizon": 2})
    assert excinfo.value.status == 400
