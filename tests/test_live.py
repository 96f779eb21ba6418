"""repro.live: operator value pins, capped storage, streaming.

The online operators and the series functions folded over them are one
implementation, pinned to recorded values.  The live materializer tests
check that its rolling state, read mid-run, equals a query over the
stored series every epoch, so a dashboard sees the same numbers a
post-hoc query would compute.
"""

import json
import threading
import time

import pytest

from repro import RunOptions, api
from repro.core import AppSpec, ProfileSpec
from repro.core.materializer import PATH_SET
from repro.core.profiler import PathFinder
from repro.exec import cxl_node_id
from repro.live import (
    IngestionBus,
    LiveMaterializer,
    LiveSpec,
    coerce_live,
    render_live_event,
)
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


# -- retention bounds ---------------------------------------------------------


@pytest.mark.parametrize("straggle_every,num_tags", [
    pytest.param(0, 0, id="in-order"),
    # Every 20th insert lands 7.5 ticks late, spread over 4 tag sets, so
    # out-of-order inserts land under the trim.
    pytest.param(20, 4, id="stragglers"),
])
def test_raw_retention_bounds_memory_and_counts_drops(straggle_every, num_tags):
    db = TimeSeriesDB(max_points=1_000)
    total = 20_000
    newest = float("-inf")
    for i in range(total):
        ts = float(i)
        if straggle_every and i % straggle_every == straggle_every - 1:
            ts -= 7.5
        tags = {"pid": str(i % num_tags)} if num_tags else None
        db.insert("m", ts, tags=tags, fields={"v": float(i)})
        newest = max(newest, ts)
    raw = db.measurement("m")
    # Amortised trim: never more than cap + slack points in memory.
    assert len(raw) <= 1_000 + max(64, 1_000 // 8)
    assert raw.dropped == total - len(raw)
    # The newest points survive and stay queryable, in order.
    timestamps = db.from_("m").timestamps()
    assert timestamps == sorted(timestamps)
    assert timestamps[-1] == newest
    stats = db.stats()
    assert stats["m"] == {"points": len(raw), "dropped": raw.dropped}


def test_million_point_series_queryable_under_cap():
    db = TimeSeriesDB(max_points=10_000)
    total = 1_000_000
    for i in range(total):
        db.insert("m", float(i), fields={"v": float(i)})
    raw = db.measurement("m")
    assert len(raw) <= 10_000 + max(64, 10_000 // 8)
    assert raw.dropped + len(raw) == total
    # The most recent history stays queryable, oldest first.
    assert db.from_("m").timestamps()[-1] == float(total - 1)
    assert db.from_("m").values("v")[0] == float(raw.dropped)


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


# -- ingestion bus ------------------------------------------------------------


def test_bus_bounded_subscriber_drops_oldest():
    bus = IngestionBus()
    sub = bus.subscribe(maxlen=4)
    for i in range(10):
        bus.publish({"i": i})
    got = sub.drain_nowait()
    assert [e["i"] for e in got] == [6, 7, 8, 9]
    assert sub.dropped == 6
    assert bus.stats()["published"] == 10


def test_bus_close_ends_iteration():
    bus = IngestionBus()
    sub = bus.subscribe()
    received = []

    def consume():
        for event in sub:
            received.append(event)

    thread = threading.Thread(target=consume)
    thread.start()
    bus.publish({"i": 0})
    bus.publish({"i": 1})
    bus.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [e["i"] for e in received] == [0, 1]
    # Post-close subscriptions are born with the close marker queued.
    late = bus.subscribe()
    assert late.drain_nowait() == []
    assert late.closed


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


@pytest.fixture(scope="module")
def live_run():
    """One live profiling run of two co-resident apps, with per-epoch
    batch-vs-rolling parity checked inside the epoch callback."""
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
    mismatches = []
    holder = {}

    def on_epoch(digest):
        digests.append(digest)
        materializer = holder["pf"].materializer
        for pid in materializer.tracked_pids():
            for dst in ("LLC", "CXL"):
                series = (
                    materializer.db.from_(PATH_SET)
                    .where(pid=str(pid), path="DRd", dst=dst)
                    .values("hits")
                )
                if not series:
                    continue
                want = moving_average(series, WINDOW)[-1]
                got = materializer.rolling_locality(pid, dst=dst)["mean"]
                if got != pytest.approx(want, rel=1e-9, abs=1e-9):
                    mismatches.append((digest["epoch"], pid, dst, got, want))

    pf = PathFinder(machine, spec, live=LiveSpec(window=WINDOW),
                    on_epoch=on_epoch)
    holder["pf"] = pf
    result = pf.run()
    return pf, result, digests, mismatches


def test_live_run_uses_live_materializer(live_run):
    pf, result, digests, _ = live_run
    assert isinstance(pf.materializer, LiveMaterializer)
    assert len(digests) == len(result.epochs) > 0


def test_live_rolling_mean_matches_batch_every_epoch(live_run):
    _, _, _, mismatches = live_run
    assert mismatches == []


def test_live_forecast_matches_batch_over_stored_series(live_run):
    pf, _, _, _ = live_run
    materializer = pf.materializer
    for pid in materializer.tracked_pids():
        # Both apps are CXL-bound: their DRd->LLC series are all zero,
        # so the forecast is checked on the DRd->CXL hits.
        series = (
            materializer.db.from_(PATH_SET)
            .where(pid=str(pid), path="DRd", dst="CXL")
            .values("hits")
        )
        assert any(series)
        got = materializer.rolling_locality(pid, dst="CXL")["forecast"]
        want = holt_winters(series, horizon=1)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-7)


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
    pf = PathFinder(machine, ProfileSpec(apps=apps, epoch_cycles=10_000.0),
                    live=LiveSpec(window=WINDOW))
    pf.run()
    materializer = pf.materializer
    pids = materializer.tracked_pids()
    assert len(pids) == 2
    for pid in pids:
        series = (
            materializer.db.from_(PATH_SET)
            .where(pid=str(pid), path="DRd", dst="LLC")
            .values("hits")
        )
        assert len(set(series)) > 1 and any(series)
    a, b = pids
    batch = materializer.correlate(a, b)
    assert batch != 0.0
    assert materializer.rolling_correlate(a, b) == pytest.approx(
        batch, rel=1e-6, abs=1e-6
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
    pf, _, _, _ = live_run
    report = pf.materializer.locality(pf.materializer.tracked_pids()[0])
    assert report.hits_series


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
            server.daemon.live_bus.publish({"event": "tick", "i": i})
            time.sleep(0.05)

    threading.Thread(target=pump, daemon=True).start()
    got = list(client.live(max_events=3, timeout=30))
    assert got[0]["event"] == "hello"
    assert [e["event"] for e in got[1:]] == ["tick"] * 3


def test_fleet_merged_live_stream(server, client):
    from repro.fleet import FleetCoordinator

    def pump():
        time.sleep(0.3)
        for i in range(20):
            server.daemon.live_bus.publish({"event": "tick", "i": i})
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
