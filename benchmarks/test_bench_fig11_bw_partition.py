"""Figure 11 / Case 5 (section 5.6): CXL bandwidth partition.

Setup: four MBW instances, then four GUPS instances, all hammering the
CXL DIMM so the FlexBus+MC saturates.  Paper headlines:

* Fig 11-a: contention cuts every mFlow's bandwidth, non-uniformly
  (MBW instances lose between ~38% and ~75%);
* PFAnalyzer flags FlexBus+MC as the culprit under saturation;
* Fig 11-b: per-mFlow CXL request frequency correlates with the
  application-reported bandwidth at r ~= 0.998, so PFBuilder's request
  counts can stand in for runtime bandwidth attribution.
"""

import pytest

from repro.experiments import case5_bandwidth

from .helpers import record


@pytest.fixture(scope="module")
def case():
    return case5_bandwidth()


def test_fig11a_nonuniform_degradation(case):
    bandwidths = record(case.tables["fig11a"]).column("app BW B/cyc")
    # All four got bandwidth, and the partition is non-uniform.
    assert all(b > 0 for b in bandwidths)
    assert max(bandwidths) > 1.5 * min(bandwidths)


def test_fig11_flexbus_is_culprit_under_saturation(case):
    culprit_components = [
        e.queues.culprit().component
        for e in case.results["bwpart@mbw"].epochs if e.queues.culprit()
    ]
    assert culprit_components, "no culprits detected"
    flexbus_epochs = culprit_components.count("FlexBus+MC")
    # Under 4-way saturation PFAnalyzer should flag the FlexBus+MC in a
    # meaningful share of snapshots.
    assert flexbus_epochs >= len(culprit_components) // 4


def test_fig11b_frequency_bandwidth_correlation(case):
    r = dict(record(case.tables["fig11b"]).rows)
    # Paper: r = 0.998.  Demand a strong positive correlation.
    assert r["MBW"] > 0.9
    assert r["GUPS"] > 0.9
