"""Figure 12 / Case 6 (section 5.7): data-locality monitoring.

PFMaterializer tracks 503.bwaves_r's locality across snapshots while
neighbours launch mid-run: (a) 519.lbm_r on local memory, (b) 554.roms_r
on CXL memory, (c) three apps on both tiers.  Paper headline: bwaves'
LLC misses are ~20.6% lower when co-located with lbm than with roms -
the CXL-bound neighbour disturbs bwaves' locality more.
"""

import pytest

from repro.experiments import (
    FIG12_LAUNCH_AT,
    beyond_llc_rate,
    case6_locality,
    victim_locality,
)

from .helpers import record


@pytest.fixture(scope="module")
def case():
    return case6_locality()


def _victim(case, scenario):
    return victim_locality(case.results[f"locality:{scenario}"])


def test_fig12_llc_hits_shift_on_disturbance(case):
    record(case.tables["shift"])
    # The materializer produced a usable before/after series for the
    # disturbed scenarios.
    for scenario in ("lbm_local", "roms_cxl", "three_apps"):
        materializer, pid = _victim(case, scenario)
        before, after = materializer.locality_shift(
            pid, FIG12_LAUNCH_AT, dst="LLC"
        )
        assert before >= 0 and after >= 0


def test_fig12_lbm_friendlier_than_roms(case):
    """Paper: bwaves sees ~20.6% fewer LLC misses with lbm than with roms."""
    miss_lbm, miss_roms = record(case.tables["beyond"]).column("miss rate")
    assert miss_lbm <= miss_roms * 1.1


def test_fig12_three_apps_add_interference(case):
    solo = beyond_llc_rate(*_victim(case, "solo"))
    three = beyond_llc_rate(*_victim(case, "three_apps"))
    # Additional co-runners cannot improve bwaves' LLC locality.
    assert three >= solo * 0.9


def test_fig12_windows_detect_phase_change(case):
    """The clustering workflow finds more than one stable phase once the
    neighbour launches."""
    materializer, pid = _victim(case, "roms_cxl")
    report = materializer.locality(pid, component="LLC")
    assert len(report.hits_series) >= 5
    assert len(report.windows) >= 1
