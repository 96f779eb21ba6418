"""Machine configurations.

Section 5.1's two testbeds:

* **SPR** - dual-socket Sapphire Rapids, Xeon Gold 6438Y+ (32 cores @
  2.0 GHz, 48 KiB L1D, 2 MiB L2, 60 MiB LLC), SNC enabled, 256 GiB DDR5,
  one Agilex-based CXL Type-3 device with 16 GiB DDR4.
* **EMR** - dual-socket Emerald Rapids, Xeon Gold 6530 (32 cores,
  48 KiB L1D, 2 MiB L2, **160 MiB** LLC), 1536 GiB DDR5, Micron CZ120
  256 GiB CXL DIMMs.

The simulator defaults below keep those proportions (the larger EMR LLC is
what shrinks the stall deltas in Figures 14-16) while scaling core count
and capacities down so a simulation finishes in seconds.  All latencies
are CPU cycles at the configured frequency and are calibrated against the
paper's section 2.3 MLC measurements (local 103.2 ns / 131.1 GB/s, CXL
355.3 ns / 17.6 GB/s) by the ``benchmarks/test_bench_mlc.py`` harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .dram import DRAMTiming
from .fabric import FabricSpec


@dataclass(frozen=True)
class FlitMode:
    """Wire format of one CXL.mem message class (section 2.1).

    ``data_flit``: bytes on the wire for a message carrying one 64-byte
    cacheline; ``header_flit``: bytes for a request/completion with no
    data.  The 256B mode amortises headers across slots; PBR adds routing
    overhead for switched fabrics.
    """

    name: str
    data_flit: float
    header_flit: float


FLIT_MODES: Dict[str, FlitMode] = {
    "68B": FlitMode("68B", data_flit=68.0, header_flit=16.0),
    "256B": FlitMode("256B", data_flit=66.0, header_flit=8.0),
    "PBR": FlitMode("PBR", data_flit=72.0, header_flit=20.0),
}


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to assemble a :class:`~repro.sim.machine.Machine`."""

    name: str = "spr"
    # This machine's identity on a multi-host fabric (numactl -H hostname
    # analogue); attach_fabric keys upstream traffic by it when the fabric
    # has a host of that name (FabricSpec.primary).
    host_id: str = "host0"
    frequency_ghz: float = 2.0
    num_cores: int = 4
    # Private caches (per core).
    l1d_size: int = 48 * 1024
    l1d_ways: int = 12
    l2_size: int = 2 * (1 << 20)
    l2_ways: int = 16
    # SB/LFB sizes are scaled down with the working sets (see
    # repro.workloads.suites.SCALE); the full-size SPR SB has 56 entries.
    sb_entries: int = 14
    lfb_entries: int = 16
    max_outstanding_loads: int = 48
    l1_latency: float = 5.0
    l2_latency: float = 15.0
    # LLC / CHA.
    llc_size: int = 8 * (1 << 20)
    llc_ways: int = 12
    llc_slices: int = 8
    snc_clusters: int = 2
    llc_policy: str = "lru"
    llc_hit_latency: float = 46.0
    snoop_latency: float = 70.0
    tor_depth: int = 88
    # Prefetchers.
    l1_pf_degree: int = 1
    l2_pf_degree: int = 3
    prefetch_enabled: bool = True
    # Memory map (bytes).  Small capacities keep page maps light; the
    # *ratio* of local to CXL capacity is what tiering cases care about.
    local_mem_bytes: int = 4 * (1 << 30)
    cxl_mem_bytes: int = 4 * (1 << 30)
    remote_mem_bytes: int = 0
    # Memory pooling: number of CXL Type-3 endpoints, each with its own
    # FlexBus root port, device and NUMA node (cxl_mem_bytes each).
    num_cxl_devices: int = 1
    # CXL.mem flit mode (section 2.1): "68B" (64B payload + header),
    # "256B" (packs multiple slots, lower header overhead), or "PBR"
    # (port-based routing flits for switched fabrics, more header).
    flit_mode: str = "68B"
    # DRAM + CXL timings.
    local_dram: DRAMTiming = field(
        default_factory=lambda: DRAMTiming(
            access_latency=155.0, bytes_per_cycle=8.2, channels=8
        )
    )
    cxl_dram: DRAMTiming = field(
        default_factory=lambda: DRAMTiming(
            access_latency=240.0, bytes_per_cycle=10.0, channels=1
        )
    )
    imc_queue_depth: int = 64
    # FlexBus / CXL device.
    flexbus_bytes_per_cycle: float = 9.0
    flexbus_propagation: float = 140.0
    m2pcie_ingress_depth: int = 192
    cxl_pack_buf_depth: int = 32
    cxl_mc_queue_depth: int = 48
    cxl_controller_latency: float = 110.0
    # Mesh.
    mesh_hop_latency: float = 4.0
    # Optional switched multi-host fabric between the root ports and the
    # device pool (see repro.sim.fabric); None = direct attach.
    fabric: Optional[FabricSpec] = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.llc_slices % self.snc_clusters:
            raise ValueError("LLC slices must divide evenly into SNC clusters")
        if self.num_cxl_devices < 1:
            raise ValueError("need at least one CXL device")
        if self.flit_mode not in FLIT_MODES:
            raise ValueError(
                f"unknown flit mode {self.flit_mode!r};"
                f" choose from {sorted(FLIT_MODES)}"
            )
        if self.fabric is not None and len(self.fabric.devices) != self.num_cxl_devices:
            raise ValueError(
                f"fabric names {len(self.fabric.devices)} device(s) but "
                f"num_cxl_devices={self.num_cxl_devices}; use "
                "repro.sim.fabric.apply_fabric to keep them in sync"
            )

    @property
    def flit_bytes(self) -> "FlitMode":
        return FLIT_MODES[self.flit_mode]

    @property
    def cycles_per_ns(self) -> float:
        return self.frequency_ghz

    def ns(self, cycles: float) -> float:
        """Convert cycles to nanoseconds at this machine's frequency."""
        return cycles / self.frequency_ghz

    @property
    def cores_per_cluster(self) -> int:
        return max(1, self.num_cores // self.snc_clusters)


def spr_config(**overrides) -> MachineConfig:
    """Sapphire Rapids testbed (default machine for all benches)."""
    return replace(MachineConfig(), **overrides) if overrides else MachineConfig()


def emr_config(**overrides) -> MachineConfig:
    """Emerald Rapids testbed: 2.7x larger LLC, faster CXL DIMM (CZ120).

    The larger LLC absorbs more of the CXL latency (section 3.6: smaller
    stall increases, less hit/miss variation) and the ASIC-based CZ120 has
    lower device latency than the FPGA Agilex card.
    """
    base = MachineConfig(
        name="emr",
        llc_size=21 * (1 << 20),   # 160/60 ratio of the SPR default
        llc_slices=8,
        cxl_dram=DRAMTiming(access_latency=150.0, bytes_per_cycle=14.0, channels=1),
        cxl_controller_latency=40.0,
        flexbus_bytes_per_cycle=12.0,
    )
    return replace(base, **overrides) if overrides else base
