"""PMU event catalog (paper Tables 1-4).

The paper identifies 232 usable counters across four PMU groups: core,
CHA/LLC, uncore (IMC + M2PCIe) and the CXL device.  This module is the
machine-readable version of those tables: every event the simulator emits,
tagged with its group, scope kind, and the CXL.mem data path(s) it
observes (Table 5's PFBuilder mapping).  PathFinder modules select events
from this catalog by name, exactly as the real tool selects perf events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class EventSpec:
    name: str
    group: str          # "core" | "cha" | "uncore" | "cxl"
    scope_kind: str     # "per-core" | "per-socket" | "per-channel" | "per-device"
    kind: str           # "event" | "cycles" | "occupancy" | "latency"
    paths: Tuple[str, ...] = ()
    description: str = ""


_E = EventSpec

CORE_EVENTS: List[EventSpec] = [
    _E("resource_stalls.sb", "core", "per-core", "cycles", ("DWr",),
       "Stall cycles with SB full while loads are still issued"),
    _E("exe_activity.bound_on_stores", "core", "per-core", "cycles", ("DWr",),
       "Stall cycles with SB full and no loads outstanding"),
    _E("cycle_activity.cycles_l1d_miss", "core", "per-core", "cycles", ("DRd",),
       "Cycles while an L1D-miss demand load is outstanding"),
    _E("memory_activity.stalls_l1d_miss", "core", "per-core", "cycles", ("DRd",),
       "Execution stall cycles while an L1D-miss demand load is outstanding"),
    _E("l1d.replacement", "core", "per-core", "event", ("DRd", "RFO"),
       "L1D line evictions"),
    _E("mem_load_retired.l1_hit", "core", "per-core", "event", ("DRd",),
       "Retired loads hitting L1D"),
    _E("mem_load_retired.l1_miss", "core", "per-core", "event", ("DRd",),
       "Retired loads missing L1D"),
    _E("mem_load_retired.fb_hit", "core", "per-core", "event", ("DRd",),
       "Retired loads missing L1D but hitting an in-flight LFB line"),
    _E("l1d_pend_miss.fb_full", "core", "per-core", "cycles", ("DRd", "RFO"),
       "Cycles a demand request waited because the LFB was full"),
    _E("mem_load_retired.l2_hit", "core", "per-core", "event", ("DRd",)),
    _E("mem_load_retired.l2_miss", "core", "per-core", "event", ("DRd",)),
    _E("mem_store_retired.l2_hit", "core", "per-core", "event", ("RFO",)),
    _E("l2_rqsts.references", "core", "per-core", "event", ("DRd", "RFO", "HWPF")),
    _E("l2_rqsts.miss", "core", "per-core", "event", ("DRd", "RFO", "HWPF")),
    _E("l2_rqsts.all_demand_references", "core", "per-core", "event", ("DRd",)),
    _E("l2_rqsts.all_demand_miss", "core", "per-core", "event", ("DRd",)),
    _E("l2_rqsts.all_demand_data_rd", "core", "per-core", "event", ("DRd",)),
    _E("l2_rqsts.demand_data_rd_hit", "core", "per-core", "event", ("DRd",)),
    _E("l2_rqsts.demand_data_rd_miss", "core", "per-core", "event", ("DRd",)),
    _E("offcore_requests.demand_data_rd", "core", "per-core", "event", ("DRd",)),
    _E("offcore_requests.data_rd", "core", "per-core", "event", ("DRd", "HWPF")),
    _E("offcore_requests.all.requests", "core", "per-core", "event",
       ("DRd", "RFO", "HWPF")),
    _E("l2_rqsts.all_rfo", "core", "per-core", "event", ("RFO",)),
    _E("l2_rqsts.rfo_hit", "core", "per-core", "event", ("RFO",)),
    _E("l2_rqsts.rfo_miss", "core", "per-core", "event", ("RFO",)),
    _E("l2_rqsts.swpf_hit", "core", "per-core", "event", ("HWPF",)),
    _E("l2_rqsts.swpf_miss", "core", "per-core", "event", ("HWPF",)),
    _E("l2_rqsts.pf_hit", "core", "per-core", "event", ("HWPF",)),
    _E("l2_rqsts.pf_miss", "core", "per-core", "event", ("HWPF",)),
    _E("memory_activity.stalls_l2_miss", "core", "per-core", "cycles", ("DRd",)),
    _E("cycle_activity.cycles_l2_miss", "core", "per-core", "cycles", ("DRd",)),
    _E("ORO.data_rd", "core", "per-core", "occupancy", ("DRd", "HWPF"),
       "Outstanding data reads, integrated per cycle"),
    _E("ORO.cycles_with_data_rd", "core", "per-core", "cycles", ("DRd", "HWPF")),
    _E("ORO.demand_data_rd", "core", "per-core", "occupancy", ("DRd",)),
    _E("ORO.cycles_with_demand_data_rd", "core", "per-core", "cycles", ("DRd",)),
    _E("inst_retired.any", "core", "per-core", "event", ()),
    _E("cpu_clk_unhalted", "core", "per-core", "cycles", ()),
    _E("mem_inst_retired.all_loads", "core", "per-core", "event", ("DRd",)),
    _E("mem_inst_retired.all_stores", "core", "per-core", "event", ("DWr",)),
    _E("sw_prefetch_access.any", "core", "per-core", "event", ("HWPF",)),
    _E("sb.occupancy", "core", "per-core", "occupancy", ("DWr",),
       "Store-buffer occupancy, integrated per cycle"),
    _E("sb.inserts", "core", "per-core", "event", ("DWr",)),
    _E("lfb.occupancy", "core", "per-core", "occupancy", ("DRd",),
       "Line-fill-buffer occupancy, integrated per cycle"),
    _E("lfb.inserts", "core", "per-core", "event", ("DRd",)),
    _E("app.ops_completed", "core", "per-core", "event", (),
       "Workload-level operations completed (application throughput)"),
]

# Load-latency sampling (mem_trans_retired.load_latency in Table 1): the
# simulator aggregates per-serve-location sums and counts.
_LATENCY_LOCATIONS = (
    "L2", "local_LLC", "snc_LLC", "remote_LLC",
    "local_DRAM", "remote_DRAM", "CXL_DRAM",
)
for _location in _LATENCY_LOCATIONS:
    for _suffix in ("sum", "count"):
        CORE_EVENTS.append(
            _E(
                f"lat_sample.{_location}.{_suffix}", "core", "per-core",
                "latency", ("DRd", "RFO"),
                f"Sampled load latency to {_location} ({_suffix})",
            )
        )

_OCR_SCENARIOS = (
    "any_response", "l3_hit", "snc_cache", "local_dram",
    "snc_dram", "remote_cache", "remote_dram", "cxl_dram", "non_local_cache",
)
_OCR_BASES = {
    "ocr.demand_data_rd": ("DRd",),
    "ocr.rfo": ("RFO",),
    "ocr.l1d_hw_pf": ("HWPF",),
    "ocr.l2_hw_pf_drd": ("HWPF",),
    "ocr.l2_hw_pf_rfo": ("HWPF",),
    "ocr.modified_write": ("DWr",),
}

CHA_EVENTS: List[EventSpec] = [
    _E("cycle_activity.stalls_l3_miss", "cha", "per-core", "cycles", ("DRd",)),
    _E("ORO.l3_miss_demand_data_rd", "cha", "per-core", "occupancy", ("DRd",)),
]
for _base, _paths in _OCR_BASES.items():
    for _scenario in _OCR_SCENARIOS:
        CHA_EVENTS.append(
            _E(f"{_base}.{_scenario}", "cha", "per-core", "event", _paths)
        )

_TOR_SCENARIOS = {
    "ia_drd": ("total", "hit", "miss", "miss_ddr", "miss_local",
               "miss_local_ddr", "miss_remote", "miss_remote_ddr", "miss_cxl"),
    "ia_drd_pref": ("total", "hit", "miss", "miss_ddr", "miss_local",
                    "miss_local_ddr", "miss_remote", "miss_remote_ddr",
                    "miss_cxl"),
    "ia_rfo": ("total", "hit", "miss", "miss_local", "miss_remote", "miss_cxl"),
    "ia_rfo_pref": ("total", "hit", "miss", "miss_local", "miss_remote",
                    "miss_cxl"),
    "ia_wb": ("total", "e_to_e", "e_to_i", "m_to_e", "m_to_i", "s_to_i"),
    "ia": ("total", "hit", "miss", "miss_cxl"),
}
_TOR_PATH = {
    "ia_drd": ("DRd",), "ia_drd_pref": ("HWPF",), "ia_rfo": ("RFO",),
    "ia_rfo_pref": ("HWPF",), "ia_wb": ("DWr",), "ia": (),
}
for _sub, _scenarios in _TOR_SCENARIOS.items():
    for _scenario in _scenarios:
        CHA_EVENTS.append(
            _E(
                f"unc_cha_tor_inserts.{_sub}.{_scenario}", "cha", "per-socket",
                "event", _TOR_PATH[_sub],
            )
        )
        CHA_EVENTS.append(
            _E(
                f"unc_cha_tor_occupancy.{_sub}.{_scenario}", "cha", "per-socket",
                "occupancy", _TOR_PATH[_sub],
            )
        )

UNCORE_EVENTS: List[EventSpec] = [
    _E("unc_m_rpq_cycles_ne", "uncore", "per-channel", "cycles", ("DRd", "HWPF")),
    _E("unc_m_rpq_inserts", "uncore", "per-channel", "event", ("DRd", "HWPF")),
    _E("unc_m_rpq_occupancy", "uncore", "per-channel", "occupancy", ("DRd", "HWPF")),
    _E("unc_m_wpq_cycles_ne", "uncore", "per-channel", "cycles", ("DWr",)),
    _E("unc_m_wpq_inserts", "uncore", "per-channel", "event", ("DWr",)),
    _E("unc_m_wpq_occupancy", "uncore", "per-channel", "occupancy", ("DWr",)),
    _E("unc_m_cas_count.all", "uncore", "per-channel", "event", ()),
    _E("unc_m_cas_count.rd", "uncore", "per-channel", "event", ("DRd", "HWPF")),
    _E("unc_m_cas_count.wr", "uncore", "per-channel", "event", ("DWr",)),
    _E("unc_m2p_rxc_cycles_ne.all", "uncore", "per-socket", "cycles",
       ("DRd", "RFO", "HWPF", "DWr")),
    _E("unc_m2p_rxc_inserts.all", "uncore", "per-socket", "event",
       ("DRd", "RFO", "HWPF", "DWr")),
    _E("unc_m2p_rxc_occupancy.all", "uncore", "per-socket", "occupancy",
       ("DRd", "RFO", "HWPF", "DWr")),
    _E("unc_m2p_txc_inserts.ak", "uncore", "per-socket", "event", ("DWr",),
       "Write acknowledgements returned to the mesh"),
    _E("unc_m2p_txc_inserts.bl", "uncore", "per-socket", "event", ("DRd", "HWPF"),
       "Block-data (cacheline) responses returned to the mesh"),
    _E("unc_m2p_link_occupancy", "uncore", "per-socket", "occupancy",
       ("DRd", "RFO", "HWPF", "DWr"),
       "FlexBus serialisation queue occupancy, both directions"),
    _E("unc_m2p_link_cycles_ne", "uncore", "per-socket", "cycles",
       ("DRd", "RFO", "HWPF", "DWr")),
    _E("unc_cxlsw_occupancy", "uncore", "per-switch-port", "occupancy",
       ("DRd", "RFO", "HWPF", "DWr"),
       "Fabric switch output-port queue occupancy, per port (extension)"),
    _E("unc_cxlsw_cycles_ne", "uncore", "per-switch-port", "cycles",
       ("DRd", "RFO", "HWPF", "DWr"),
       "Cycles a fabric switch output-port queue was not empty"
       " (extension)"),
    _E("unc_cxlsw_fwd", "uncore", "per-switch-port", "event",
       ("DRd", "RFO", "HWPF", "DWr"),
       "Flits a fabric switch forwarded out of one port; equals delivered"
       " flits, never attempts (extension)"),
    _E("unc_cxlsw_retry", "uncore", "per-switch-port", "event",
       ("DRd", "RFO", "HWPF", "DWr"),
       "Credit-throttled submissions at one fabric switch port"
       " (extension)"),
]

CXL_EVENTS: List[EventSpec] = [
    _E("unc_cxlcm_rxc_pack_buf_inserts.mem_req", "cxl", "per-device", "event",
       ("DRd", "RFO", "HWPF")),
    _E("unc_cxlcm_rxc_pack_buf_inserts.mem_data", "cxl", "per-device", "event",
       ("DWr",)),
    _E("unc_cxlcm_rxc_pack_buf_ne.mem_req", "cxl", "per-device", "cycles",
       ("DRd", "RFO", "HWPF")),
    _E("unc_cxlcm_rxc_pack_buf_ne.mem_data", "cxl", "per-device", "cycles",
       ("DWr",)),
    _E("unc_cxlcm_rxc_pack_buf_full.mem_req", "cxl", "per-device", "cycles",
       ("DRd", "RFO", "HWPF")),
    _E("unc_cxlcm_rxc_pack_buf_full.mem_data", "cxl", "per-device", "cycles",
       ("DWr",)),
    _E("unc_cxlcm_rxc_pack_buf_occupancy.mem_req", "cxl", "per-device",
       "occupancy", ("DRd", "RFO", "HWPF")),
    _E("unc_cxlcm_rxc_pack_buf_occupancy.mem_data", "cxl", "per-device",
       "occupancy", ("DWr",)),
    _E("unc_cxlcm_txc_pack_buf_inserts.mem_req", "cxl", "per-device", "event",
       ("DWr",)),
    _E("unc_cxlcm_txc_pack_buf_inserts.mem_data", "cxl", "per-device", "event",
       ("DRd", "HWPF")),
    _E("unc_cxlcm_mc_occupancy", "cxl", "per-device", "occupancy",
       ("DRd", "RFO", "HWPF", "DWr")),
    _E("unc_cxlcm_mc_cycles_ne", "cxl", "per-device", "cycles",
       ("DRd", "RFO", "HWPF", "DWr")),
]

ALL_EVENTS: List[EventSpec] = CORE_EVENTS + CHA_EVENTS + UNCORE_EVENTS + CXL_EVENTS

EVENTS_BY_NAME: Dict[str, EventSpec] = {e.name: e for e in ALL_EVENTS}


def events_for_path(path_family: str) -> List[EventSpec]:
    """All events observing one data-path family (DRd/RFO/HWPF/DWr)."""
    return [e for e in ALL_EVENTS if path_family in e.paths]


def events_in_group(group: str) -> List[EventSpec]:
    return [e for e in ALL_EVENTS if e.group == group]


def catalog_size() -> int:
    """Total distinct counters in the catalog (paper: 232 selected)."""
    return len(EVENTS_BY_NAME)
