"""Figures 9-10 / Case 4 (section 5.5): concurrent CXL mFlow contention.

Setup: a YCSB mFlow on core 0 plus neighbour CXL mFlows on other cores;
the neighbours' traffic load sweeps 20% -> 100%.  Paper headlines:

* Fig 9-a: YCSB throughput collapses (-77.4% on average);
* Fig 9-h: FlexBus+MC latency up ~4.3x - contention manifests first at
  the shared FlexBus+MC;
* Fig 10-e: FlexBus+MC DRd queueing degree up ~4.6x;
* core-side CXL-induced stalls (SB/LFB/L2/LLC) rise 1.8-2.9x even though
  the neighbours never share the core;
* Fig 10-a: YCSB's L1D queueing *drops* (the stalled core issues fewer
  requests), and the culprit shifts from the core to FlexBus+MC.
"""

import pytest

from repro.experiments import FIG9_LOADS, case4_contention, ycsb_view

from .helpers import record


@pytest.fixture(scope="module")
def case():
    return case4_contention()


def test_fig9a_ycsb_throughput_collapses(case):
    tput = record(case.tables["fig9a"]).column("tput")
    # Paper: -77.4% on average vs uncontended (the 0% row is YCSB solo);
    # require a large drop.
    assert tput[-1] < 0.6 * tput[0]


def test_fig9h_flexbus_latency_rises(case):
    delay = record(case.tables["fig9h"]).column("delay")
    assert delay[-1] > 1.5 * max(delay[0], 1.0)  # paper: 4.3x


def test_fig9_core_stalls_rise(case):
    record(case.tables["fig9"])
    lo, hi = (
        sum(ycsb_view(case.results[f"contention@{load:.1f}"])
            ["stalls"].values())
        for load in (FIG9_LOADS[0], FIG9_LOADS[-1])
    )
    assert hi > 1.3 * max(lo, 1.0)  # paper: 1.8-2.9x across components


def test_fig10e_flexbus_queue_grows(case):
    flexbus = record(case.tables["fig10"]).column("FlexBus+MC")
    assert flexbus[-1] > 2.0 * max(flexbus[0], 0.01)  # paper: 4.6x


def test_fig10_bottleneck_shifts_to_flexbus(case):
    """At full neighbour load the snapshot culprit lives at FlexBus+MC."""
    table = case.tables["fig10"]
    assert table.column("FlexBus+MC")[-1] > table.column("L1D")[-1]
