"""Figures 14-16 / section 3.6: PMU generality on the EMR machine.

The paper repeats the section 3 characterisation on an Emerald Rapids
server (160 MiB LLC, Micron CZ120 CXL DIMMs) and finds the same trends
with *smaller* deltas - the larger LLC absorbs more of the CXL latency:

* Fig 14: SB stalls up ~1.3x (vs 1.9-2.0x on SPR), L1D stalls ~1.3x
  (vs 2.1x), L2 stalls ~1.5x (vs 2.7x);
* Fig 15: LLC stalls up ~2.1x, smaller hit/miss count variation;
* Fig 16: IMC bypass and DIMM traffic ground truth identical to SPR.
"""

import pytest

from repro.sim import emr_config, spr_config

from .helpers import (
    CHARACTERIZATION_APPS,
    Table,
    geomean,
    local_vs_cxl,
    ratio,
    record,
)

APPS = CHARACTERIZATION_APPS[:4]


@pytest.fixture(scope="module")
def spr_runs():
    return local_vs_cxl(APPS, ops=8000, config=spr_config(num_cores=2))


@pytest.fixture(scope="module")
def emr_runs():
    return local_vs_cxl(APPS, ops=8000, config=emr_config(num_cores=2))


def _stall_ratios(runs, metric):
    out = []
    for app, pair in runs.items():
        local = getattr(pair["local"].core(), metric)
        cxl = getattr(pair["cxl"].core(), metric)
        r = ratio(cxl, local)
        if r > 0:
            out.append(r)
    return out


def test_fig14_same_trends_smaller_deltas(spr_runs, emr_runs):
    rows = []
    for metric, label in (
        ("l1_stall_cycles", "L1D stall"),
        ("l2_stall_cycles", "L2 stall"),
        ("l3_stall_cycles", "LLC stall"),
    ):
        spr_r = geomean(_stall_ratios(spr_runs, metric))
        emr_r = geomean(_stall_ratios(emr_runs, metric))
        rows.append([label, spr_r, emr_r])
    record(Table(
        "Figs 14-15: CXL/local stall ratios, SPR vs EMR",
        ["metric", "SPR ratio", "EMR ratio"],
        rows,
    ))
    # Same direction on both machines: CXL increases stalls.
    for metric in ("l1_stall_cycles", "l2_stall_cycles"):
        emr_ratios = _stall_ratios(emr_runs, metric)
        if emr_ratios:
            assert geomean(emr_ratios) > 1.0


def test_fig14_emr_latency_gap_smaller(spr_runs, emr_runs):
    """The CZ120's lower device latency narrows the response-time gap."""
    def mean_cxl_latency(runs):
        vals = []
        for pair in runs.values():
            mean, count = pair["cxl"].core().latency_sample("CXL_DRAM")
            if count:
                vals.append(mean)
        return sum(vals) / len(vals)

    spr_lat = mean_cxl_latency(spr_runs)
    emr_lat = mean_cxl_latency(emr_runs)
    record(Table("CXL load latency", ["machine", "cycles"],
                 [["SPR", spr_lat], ["EMR", emr_lat]]))
    assert emr_lat < spr_lat


def test_fig15_emr_llc_absorbs_more(spr_runs, emr_runs):
    """Larger EMR LLC -> fewer CXL-bound LLC misses for the same apps."""
    def cxl_misses(runs):
        return sum(
            pair["cxl"].cha().tor_inserts("DRd", "miss_cxl")
            + pair["cxl"].cha().tor_inserts("HWPF", "miss_cxl")
            for pair in runs.values()
        )

    spr_misses = cxl_misses(spr_runs)
    emr_misses = cxl_misses(emr_runs)
    record(Table("CXL-bound LLC misses", ["machine", "misses"],
                 [["SPR", spr_misses], ["EMR", emr_misses]]))
    assert emr_misses <= spr_misses


def test_fig16_imc_bypass_holds_on_emr(emr_runs):
    for app, pair in emr_runs.items():
        assert pair["cxl"].imc().rpq_inserts == 0
        assert pair["local"].imc().rpq_inserts > 0
        assert pair["cxl"].m2pcie().data_responses > 0
