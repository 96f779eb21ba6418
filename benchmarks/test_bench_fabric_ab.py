"""Case 8 (beyond the paper): fabric congestion vs a device-bound pool.

One workload runs over a 2-host pooled fabric twice: behind an
undersized switch port, and behind a healthy switch but a slow CXL DIMM.
The switch-port counters let PFAnalyzer name a different side for each,
which no single-host profile can.
"""

import pytest

from repro.experiments import case8_fabric

from .helpers import record


@pytest.fixture(scope="module")
def case():
    return case8_fabric()


def test_case8_separates_fabric_from_device(case):
    table = record(case.tables["diagnosis"])
    rows = {row[0]: dict(zip(table.header, row)) for row in table.rows}
    congested, device = rows["fabric-congested"], rows["device-bound"]
    assert congested["verdict"] == "fabric-congested"
    assert congested["hot port"].startswith("sw0")
    # The saturated switch withheld credits.
    assert congested["switch retries"] > 0
    assert device["verdict"] == "device-bound"
