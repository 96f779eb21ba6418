"""Figures 7-8 / Case 3 (section 5.4): local vs CXL mFlow interference.

Setup: one core carries a local mFlow and a CXL mFlow; the CXL traffic
load sweeps 20% -> 100%.  Paper headlines:

* Fig 7: CXL-induced stall within the core grows with CXL load - 1.7x
  (SB), 2.2x (L1D), 2.2x (LFB), 2.4x (L2), 2.4x (core LLC) from 20% to
  100% - while FlexBus and CHA queueing stay roughly stable (a single
  core cannot congest the uncore);
* Fig 8: PFAnalyzer's estimated queue lengths rise at LFB and L2
  (especially the DRd path), while FlexBus+MC stays flat;
* the core bottleneck shifts from DRd-on-L1D toward DRd-on-L2.
"""

import pytest

from repro.experiments import FIG7_LOADS, case3_interference, stall_totals

from .helpers import record


@pytest.fixture(scope="module")
def case():
    return case3_interference()


def _total_stall(case, load):
    return sum(stall_totals(case.results[f"mixed@{load:.1f}"]).values())


def test_fig7_core_stalls_grow_with_cxl_load(case):
    record(case.tables["fig7"])
    total_lo = _total_stall(case, FIG7_LOADS[0])
    total_hi = _total_stall(case, FIG7_LOADS[-1])
    # Paper: in-core CXL-induced stall up 1.7-2.4x from 20% to 100% load.
    assert total_hi > 1.5 * max(total_lo, 1.0)


def test_fig7_monotone_trend(case):
    totals = [_total_stall(case, load) for load in FIG7_LOADS]
    # Allow local non-monotonicity but require a rising overall trend.
    assert totals[-1] > totals[0]
    assert totals[-1] >= max(totals) * 0.6


def test_fig8_queue_lengths(case):
    lfb = record(case.tables["fig8"]).column("LFB")
    # LFB queueing rises with CXL load (slow fills hold entries longer).
    assert lfb[-1] > lfb[0]


def test_fig8_flexbus_stays_uncongested(case):
    """One core cannot saturate the FlexBus: its queue stays small."""
    table = case.tables["fig8"]
    flexbus, lfb = table.column("FlexBus+MC"), table.column("LFB")
    for flex, fill in zip(flexbus, lfb):
        assert flex < max(fill, 1.0) * 10
    # And it grows far less than proportionally to load.
    if flexbus[0] > 0:
        assert flexbus[-1] / flexbus[0] < 25.0
