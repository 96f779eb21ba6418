"""Unit tests for the time-series database, query pipeline and operators."""

import math

import pytest

from repro.tsdb import (
    Decomposition,
    TimeSeriesDB,
    Window,
    cluster_windows,
    decompose,
    detect_period,
    dominant_window,
    holt_winters,
    moving_average,
    pearsonr,
    series_avg,
    series_max,
    series_min,
)


# -- database ----------------------------------------------------------------


def make_db():
    db = TimeSeriesDB()
    for i in range(10):
        db.insert(
            "m", float(i),
            tags={"pid": str(i % 2), "dst": "LLC"},
            fields={"hits": float(i), "misses": float(10 - i)},
        )
    return db


def test_insert_and_range():
    db = make_db()
    records = db.measurement("m").range(3.0, 6.0)
    assert [r.timestamp for r in records] == [3.0, 4.0, 5.0, 6.0]


def test_records_sorted_even_with_out_of_order_insert():
    db = TimeSeriesDB()
    db.insert("m", 5.0, fields={"v": 1.0})
    db.insert("m", 1.0, fields={"v": 2.0})
    db.insert("m", 3.0, fields={"v": 3.0})
    assert [r.timestamp for r in db.measurement("m")] == [1.0, 3.0, 5.0]


def test_equal_timestamps_keep_insert_order():
    db = TimeSeriesDB()
    for seq, ts in enumerate([5.0, 3.0, 5.0, 1.0, 3.0, 5.0]):
        db.insert("m", ts, fields={"seq": float(seq)})
    assert db.from_("m").timestamps() == [1.0, 3.0, 3.0, 5.0, 5.0, 5.0]
    assert db.from_("m").values("seq") == [3.0, 1.0, 4.0, 0.0, 2.0, 5.0]


def test_measurement_created_lazily():
    db = TimeSeriesDB()
    assert "x" not in db
    db.measurement("x")
    assert "x" in db
    assert db.measurements() == ["x"]


# -- query ------------------------------------------------------------------


def test_where_filters_tags():
    db = make_db()
    q = db.from_("m").where(pid="0")
    assert len(q) == 5
    assert all(r.tag("pid") == "0" for r in q.records())


def test_where_multiple_tags_conjunction():
    db = make_db()
    assert len(db.from_("m").where(pid="0", dst="LLC")) == 5
    assert len(db.from_("m").where(pid="0", dst="CXL")) == 0


def test_query_range_and_values():
    db = make_db()
    q = db.from_("m").range(start=5.0)
    assert q.values("hits") == [5.0, 6.0, 7.0, 8.0, 9.0]


def test_query_aggregates():
    db = make_db()
    q = db.from_("m")
    assert q.min("hits") == 0.0
    assert q.max("hits") == 9.0
    assert q.mean("hits") == pytest.approx(4.5)
    assert q.sum("hits") == pytest.approx(45.0)


def test_query_group_by():
    db = make_db()
    groups = db.from_("m").group_by("pid")
    assert set(groups) == {"0", "1"}
    assert len(groups["0"]) == 5


def test_query_filter_predicate():
    db = make_db()
    q = db.from_("m").filter(lambda r: r.field("hits") > 7)
    assert len(q) == 2


def test_pearsonr_with_alignment():
    db = make_db()
    q0 = db.from_("m").where(pid="0")
    q1 = db.from_("m").where(pid="1")
    # hits series 0,2,4,6,8 vs 1,3,5,7,9: perfectly correlated.
    assert q0.pearsonr_with(q1, "hits") == pytest.approx(1.0)


def test_query_pearsonr_fields():
    db = make_db()
    r = db.from_("m").pearsonr("hits", "misses")
    assert r == pytest.approx(-1.0)


# -- operators -----------------------------------------------------------------


def test_min_max_avg_reject_empty():
    for fn in (series_min, series_max, series_avg):
        with pytest.raises(ValueError):
            fn([])


def test_moving_average_window():
    out = moving_average([1, 2, 3, 4, 5], window=2)
    assert out == pytest.approx([1.0, 1.5, 2.5, 3.5, 4.5])
    with pytest.raises(ValueError):
        moving_average([1.0], window=0)


def test_holt_winters_linear_trend():
    series = [float(i) for i in range(20)]
    forecast = holt_winters(series, horizon=3)
    # Next values continue the +1 trend, within tolerance.
    assert forecast[0] == pytest.approx(20.0, abs=1.5)
    assert forecast[2] > forecast[0]


def test_holt_winters_seasonal():
    season = [10.0, 0.0, 5.0, 2.0]
    series = season * 6
    forecast = holt_winters(series, horizon=4, season_length=4)
    # Forecast should track the seasonal shape.
    assert forecast[0] > forecast[1]


def test_pearsonr_properties():
    assert pearsonr([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearsonr([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    assert pearsonr([1, 2, 3], [5, 5, 5]) == 0.0
    with pytest.raises(ValueError):
        pearsonr([1, 2], [1, 2, 3])
    # Degenerate (short/empty) series carry no signal: 0.0, not a raise.
    assert pearsonr([1], [1]) == 0.0
    assert pearsonr([], []) == 0.0
    # Variances near 1e-161 must not underflow the denominator.
    tiny = [0.0, 4.832927601867835e-81]
    assert pearsonr(tiny, tiny) == pytest.approx(1.0)


def test_holt_winters_empty_series_empty_forecast():
    assert holt_winters([], horizon=3) == []
    # Constant series: flat forecast, no NaN.
    forecast = holt_winters([5.0] * 8, horizon=2)
    assert forecast == pytest.approx([5.0, 5.0])


# -- clustering ---------------------------------------------------------------


def test_cluster_windows_identifies_phases():
    series = [1.0] * 5 + [10.0] * 7 + [1.0] * 3
    windows = cluster_windows(series, tolerance=0.15)
    assert len(windows) == 3
    assert windows[0].length == 5
    assert windows[1].length == 7
    assert windows[1].mean == pytest.approx(10.0)


def test_cluster_constant_series_single_window():
    windows = cluster_windows([3.0] * 8)
    assert len(windows) == 1
    assert windows[0].length == 8


def test_cluster_empty_series():
    assert cluster_windows([]) == []


def test_dominant_window():
    windows = cluster_windows([1.0] * 2 + [9.0] * 6)
    assert dominant_window(windows).length == 6
    with pytest.raises(ValueError):
        dominant_window([])


def test_min_length_merging():
    series = [1.0, 1.0, 1.0, 50.0, 1.0, 1.0, 1.0]
    windows = cluster_windows(series, tolerance=0.1, min_length=2)
    assert all(w.length >= 2 for w in windows)


# -- tsa --------------------------------------------------------------------


def test_decompose_recovers_trend():
    series = [float(i) + (1.0 if i % 2 else -1.0) for i in range(30)]
    result = decompose(series)
    # Trend is monotonically increasing in the interior.
    interior = result.trend[5:-5]
    assert all(b >= a for a, b in zip(interior, interior[1:]))


def test_decompose_additivity():
    series = [float(i % 5) + i * 0.1 for i in range(40)]
    result = decompose(series, period=5)
    for i, value in enumerate(series):
        assert value == pytest.approx(
            result.trend[i] + result.seasonal[i] + result.residual[i]
        )


def test_decompose_empty_raises():
    with pytest.raises(ValueError):
        decompose([])


def test_detect_period_on_periodic_signal():
    series = [math.sin(2 * math.pi * i / 8) for i in range(64)]
    period = detect_period(series)
    assert period == 8


def test_detect_period_none_for_noise_free_constant():
    assert detect_period([5.0] * 30) is None
    assert detect_period([1.0, 2.0]) is None


def test_anomaly_detection():
    series = [1.0] * 20
    series[10] = 100.0
    result = decompose(series)
    assert 10 in result.anomalies(z_threshold=2.0)
