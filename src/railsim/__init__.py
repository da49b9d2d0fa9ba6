"""Rail-optimized GPU fabric simulator and analysis toolkit.

Models a cluster whose scale-out network is organized as per-local-rank
rails, each rail served by either an electrical packet switch or an
optical circuit switch.  Provides a 3D-parallel training workload
generator, an idle-window analyzer, a deterministic discrete-event
simulator with a circuit control plane, and fabric cost/power models.
"""

from .errors import (ConfigError, ConflictDeadlock, CyclicDependency,
                     DegreeInfeasible, EmptyInput, InvalidNicConfig,
                     InvalidParams, MissingDependency, NotMember, ParseError,
                     RadixExceeded, RailsimError, UnsupportedKind)
from .model import (CommGroup, NicPortConfig, RailSwitch, Topology, TopologySpec,
                    build_topology, make_group, max_gpus, ports_needed)
from .workload import (Event, EventDag, WorkloadParams, generate_3d_schedule,
                       one_f_one_b)
from .trace import load_trace, loads_trace, save_trace
from .windows import (Overlap, Phase, VolumeClassStats, Window, WindowReport,
                      analyze_rail, classify_by_volume, eq1_bound,
                      segment_phases, window_cdf)
from .control import (Controller, ControlPhase, ReconfigLogEntry,
                      profile_iteration)
from .fabric import (ControlPolicy, EventTiming, SimResult, collective_time,
                     simulate, sweep_delay)
from .econ import (BomItem, EconConfig, FabricBom, electrical_fabric_bom,
                   ocs_fabric_bom, savings, scalability_table)

__version__ = "0.1.0"

__all__ = [
    "RailsimError", "ConfigError", "InvalidNicConfig", "RadixExceeded",
    "InvalidParams", "NotMember", "ParseError", "CyclicDependency",
    "MissingDependency", "UnsupportedKind", "DegreeInfeasible",
    "ConflictDeadlock", "EmptyInput",
    "NicPortConfig", "RailSwitch", "Topology", "TopologySpec",
    "CommGroup", "build_topology", "make_group", "max_gpus", "ports_needed",
    "Event", "EventDag", "WorkloadParams", "generate_3d_schedule", "one_f_one_b",
    "save_trace", "load_trace", "loads_trace",
    "Phase", "Window", "Overlap", "WindowReport", "VolumeClassStats",
    "segment_phases", "analyze_rail", "window_cdf",
    "classify_by_volume", "eq1_bound",
    "Controller", "ControlPhase", "ReconfigLogEntry", "profile_iteration",
    "ControlPolicy", "EventTiming", "SimResult", "collective_time", "simulate",
    "sweep_delay",
    "EconConfig", "BomItem", "FabricBom", "electrical_fabric_bom",
    "ocs_fabric_bom", "savings", "scalability_table",
]
