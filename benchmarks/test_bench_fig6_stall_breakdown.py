"""Figure 6 / Case 2 (section 5.3): PFEstimator stall-cycle breakdown.

The paper breaks CXL-induced stall cycles of six applications (fft,
raytrace, barnes, freqmine, BFS, FREQ) over SB, L1D, LFB, L2, LLC, CHA,
FlexBus+MC and CXL DIMM per path.  Headline shapes:

* the uncore (FlexBus+MC + CXL DIMM) carries the bulk of DRd stalls
  (fft: 42.7% + 40.3%);
* CXL-induced stalls diminish from the uncore toward the core (fft DRd:
  -74.5% from FlexBus+MC to L1D) because locality absorbs them;
* effective prefetchers (freqmine) show HWPF stall at FlexBus+MC with
  near-zero residual DRd stall at L1D/L2; struggling ones (BFS) leak
  DRd stall into the core.
"""

import pytest

from repro.experiments import FIG6_APPS, case2_stall_breakdown, stall_totals

from .helpers import record


@pytest.fixture(scope="module")
def case():
    return case2_stall_breakdown()


def _stalls(case, app, family="DRd"):
    return stall_totals(case.results[f"{app}@cxl"], family)


def test_fig6_breakdown_table(case):
    record(case.tables["shares"])
    for app in FIG6_APPS:
        total = sum(_stalls(case, app).values())
        assert total > 0, f"{app}: no CXL-induced DRd stalls attributed"


def test_fig6_uncore_dominates(case):
    """FlexBus+MC + CXL DIMM (+CHA) carry most of the attributed stall."""
    table = case.tables["shares"]
    uncore = [
        flexbus + dimm + cha for flexbus, dimm, cha in zip(
            table.column("FlexBus+MC"), table.column("CXL_DIMM"),
            table.column("CHA"))
    ]
    assert sum(1 for share in uncore if share > 50) >= len(FIG6_APPS) // 2


def test_fig6_stalls_diminish_toward_core(case):
    """fft-style apps: core-side (L1D) attribution well below uncore."""
    for app in FIG6_APPS:
        agg = _stalls(case, app)
        uncore = agg["FlexBus+MC"] + agg["CXL_DIMM"]
        if uncore <= 0:
            continue
        assert agg["L1D"] <= uncore, app


def test_fig6_hwpf_stalls_present_for_streaming(case):
    """Prefetch-heavy apps accumulate HWPF-path stall at FlexBus+MC."""
    assert any(
        hwpf["FlexBus+MC"] + hwpf["CXL_DIMM"] > 0
        for hwpf in (_stalls(case, a, "HWPF") for a in ("fft", "bfs"))
    )


def test_fig6_dwr_stall_only_at_sb(case):
    """The DWr path books in-core stall exclusively at the SB."""
    for app in FIG6_APPS:
        for e in case.results[f"{app}@cxl"].epochs:
            dwr = e.stalls.aggregate("DWr")
            for component in ("L1D", "LFB", "L2", "LLC"):
                assert dwr[component] == 0.0
