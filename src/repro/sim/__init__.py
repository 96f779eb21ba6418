"""Simulated server memory system: the substrate PathFinder profiles.

The paper measures real Intel SPR/EMR servers with CXL Type-3 DIMMs; this
package replaces that hardware with a discrete-event, request-level model
of the same multi-stage Clos network (cores -> SB/LFB/L1D/L2 -> CHA/LLC ->
mesh -> IMC or FlexBus/M2PCIe -> CXL device), each stage instrumented with
the PMU counters of the paper's Tables 1-4.
"""

from .address import AddressSpace, NodeKind, NumaNode, PAGE_SIZE, build_address_space
from .cache import Cache, MESIF
from .engine import Engine, SimulationBudgetExceeded, Waiter
from .fabric import (
    FABRIC_PRESETS,
    Fabric,
    FabricSpec,
    HostSpec,
    SwitchSpec,
    apply_fabric,
    attach_fabric,
    preset_fabric,
)
from .hooks import EngineHooks, StagePort
from .machine import Machine
from .qos import DevLoadThrottler, QoSConfig
from .request import (
    CACHELINE,
    CXLOpcode,
    MemOp,
    MemRequest,
    PATH_FAMILIES,
    Path,
    ServeLocation,
)
from .topology import FLIT_MODES, FlitMode, MachineConfig, emr_config, spr_config

__all__ = [
    "AddressSpace",
    "CACHELINE",
    "CXLOpcode",
    "Cache",
    "DevLoadThrottler",
    "Engine",
    "EngineHooks",
    "FABRIC_PRESETS",
    "FLIT_MODES",
    "Fabric",
    "FabricSpec",
    "FlitMode",
    "HostSpec",
    "MESIF",
    "Machine",
    "MachineConfig",
    "MemOp",
    "MemRequest",
    "NodeKind",
    "NumaNode",
    "PAGE_SIZE",
    "PATH_FAMILIES",
    "QoSConfig",
    "Path",
    "ServeLocation",
    "SimulationBudgetExceeded",
    "StagePort",
    "SwitchSpec",
    "Waiter",
    "apply_fabric",
    "attach_fabric",
    "build_address_space",
    "emr_config",
    "preset_fabric",
    "spr_config",
]
