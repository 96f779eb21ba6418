"""The case-study registry, its CLI entry point and the table recorder."""

import pytest

from repro.core.cli import main
from repro.experiments import CASES, Table, record, run_case


def test_case_registry_covers_all_cases():
    assert sorted(CASES) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_run_case_unknown_id():
    with pytest.raises(KeyError):
        run_case(99)


def test_case1_via_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PATHFINDER_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["case", "--id", "1"]) == 0
    out = capsys.readouterr().out
    assert "Case 1" in out
    assert "=== Table 7: uncore access share (fotonik3d) ===" in out
    assert "=== Table 7: gcc snapshots (phase contrast) ===" in out


def test_cli_rejects_bad_case_id():
    with pytest.raises(SystemExit):
        main(["case", "--id", "9"])


# -- recording tables -------------------------------------------------------


def _table(timing=False, peak=25.31):
    return Table(
        "Overhead probe (test)", ["metric", "without", "with"],
        [["simulated cycles", 257000.0, 275000.0],
         ["profiler peak MB", "", peak]],
        timing=timing,
    )


def test_table_csv_keeps_empty_cells():
    assert _table().csv_text().splitlines() == [
        "# Overhead probe (test)",
        "metric,without,with",
        "simulated cycles,2.57e+05,2.75e+05",
        "profiler peak MB,,25.31",
    ]


def test_a_moved_table_fails_naming_its_file_then_passes(tmp_path):
    committed = tmp_path / "overhead_probe_test.csv"
    with pytest.raises(AssertionError, match="overhead_probe_test.csv"):
        record(_table(), tmp_path)  # no committed table yet
    assert record(_table(), tmp_path) == committed
    committed.write_text(committed.read_text().replace("25.31", "25.32"))
    with pytest.raises(AssertionError, match="overhead_probe_test.csv"):
        record(_table(), tmp_path)
    # The failure re-recorded the table, so the next run passes.
    record(_table(), tmp_path)


def test_a_timing_table_never_fails(tmp_path):
    record(_table(timing=True), tmp_path)
    written = record(_table(timing=True, peak=99.0), tmp_path)
    assert "99.00" in written.read_text()
