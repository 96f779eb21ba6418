"""Tests for the pathfinder CLI."""

import json

import pytest

from repro.core.cli import main


def test_list_apps(capsys):
    assert main(["list-apps"]) == 0
    out = capsys.readouterr().out
    assert "519.lbm_r" in out
    assert "SPEC CPU2017" in out


def test_list_apps_suite_filter(capsys):
    assert main(["list-apps", "--suite", "GAPBS"]) == 0
    out = capsys.readouterr().out
    assert "bfs" in out
    assert "519.lbm_r" not in out


def test_list_apps_unknown_suite(capsys):
    assert main(["list-apps", "--suite", "NOPE"]) == 2


def test_list_events(capsys):
    assert main(["list-events"]) == 0
    out = capsys.readouterr().out
    assert "resource_stalls.sb" in out
    assert "total:" in out


def test_list_events_group(capsys):
    assert main(["list-events", "--group", "cxl"]) == 0
    out = capsys.readouterr().out
    assert "unc_cxlcm" in out
    assert "resource_stalls.sb" not in out


def test_run_unknown_app(capsys):
    assert main(["run", "--app", "not-an-app"]) == 2


def test_run_small_profile(capsys):
    code = main([
        "run", "--app", "541.leela_r", "--ops", "800",
        "--epoch", "20000", "--node", "cxl",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "PathFinder session" in out
    assert "Path map" in out
    assert "culprit" in out


def test_run_two_apps_local(capsys):
    code = main([
        "run", "--app", "541.leela_r", "--app", "548.exchange2_r",
        "--ops", "500", "--node", "local", "--epoch", "20000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("mFlow") >= 2


def test_run_requires_app():
    with pytest.raises(SystemExit):
        main(["run"])


def test_campaign_grid(capsys, tmp_path):
    args = [
        "campaign", "--app", "541.leela_r", "--ops", "400",
        "--epoch", "20000", "--serial",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    # One job per node in the default local+cxl grid.
    assert "541.leela_r@local" in out
    assert "541.leela_r@cxl" in out
    assert "campaign: 2/2 ok" in out


def test_campaign_second_run_hits_cache(capsys, tmp_path):
    args = [
        "campaign", "--app", "541.leela_r", "--node", "cxl",
        "--ops", "400", "--epoch", "20000", "--serial",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cache_hit" in out
    assert "1 cache hits (100%)" in out


def test_campaign_no_cache(capsys, tmp_path):
    args = [
        "campaign", "--app", "541.leela_r", "--node", "local",
        "--ops", "400", "--epoch", "20000", "--serial", "--no-cache",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 cache hits" in out


def test_campaign_all_failed_exits_nonzero(capsys, monkeypatch):
    from repro import api
    from repro.exec.runner import CampaignResult, JobRecord

    def fake_run_many(jobs, **kwargs):
        records = [
            JobRecord(index=i, tag=f"job{i}", key=str(i), status="failed",
                      failure="error", error="boom", attempts=1)
            for i in range(len(jobs))
        ]
        return CampaignResult(jobs=records, results=[None] * len(jobs))

    monkeypatch.setattr(api, "run_many", fake_run_many)
    rc = main([
        "campaign", "--app", "541.leela_r", "--node", "local",
        "--ops", "100", "--serial", "--no-cache",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "campaign FAILED" in out


def test_campaign_serial_timeout_is_a_usage_error(capsys, tmp_path):
    # --serial runs jobs in-process, where no worker can be killed.
    rc = main([
        "campaign", "--app", "541.leela_r", "--node", "local",
        "--ops", "100", "--serial", "--timeout", "5",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--timeout" in captured.err
    assert "campaign:" not in captured.out


def test_trace_verb_prints_stage_table(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    rc = main([
        "trace", "--app", "fft", "--ops", "1500", "--node", "cxl",
        "--sample-every", "4", "--out", str(out_path), "--validate",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Flight recorder: 1-in-4 sampling" in out
    assert "stage" in out
    assert out_path.exists()
    assert "Ground-truth validation" in out


def test_trace_unknown_app(capsys):
    rc = main(["trace", "--app", "nope"])
    assert rc == 2


def test_live_verb_prints_json_epoch_digests(capsys):
    rc = main(["live", "--app", "541.leela_r", "--ops", "600",
               "--epoch", "2000", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    digests = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    epochs = [d for d in digests if d["event"] == "epoch"]
    assert epochs
    assert all("rolling" in d for d in epochs)


# -- fleet verbs ------------------------------------------------------------


def test_fleet_run_local_exits_zero(capsys):
    rc = main(["fleet", "run", "--local", "2", "--app", "541.leela_r",
               "--node", "cxl", "--ops", "600"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fleet: 2 members" in out


@pytest.fixture()
def two_members(tmp_path):
    from repro.fleet import LocalFleet

    with LocalFleet(size=2, workers=1, cache_root=str(tmp_path)) as fleet:
        flags = []
        for index in range(2):
            flags += ["--member", fleet.member_id(index)]
        yield flags


def test_fleet_status_prints_the_rollup(capsys, two_members):
    assert main(["fleet", "status", *two_members]) == 0
    rollup = json.loads(capsys.readouterr().out)
    assert rollup["members_total"] == rollup["members_reachable"] == 2
    assert len(rollup["members"]) == 2
    assert all(doc["down"] is False for doc in rollup["members"].values())


def test_fleet_drain_exits_zero(capsys, two_members):
    assert main(["fleet", "drain", *two_members]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report) == 2
    assert all(doc["draining"] for doc in report.values())
