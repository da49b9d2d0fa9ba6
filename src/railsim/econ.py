"""Fabric cost, power, and scalability models.

Compares two ways of building the scale-out rails of a GPU cluster: an
electrical packet-switched fabric (one switch tier per rail when the radix
suffices, otherwise a non-oversubscribed two-tier Clos) against a flat
optical circuit switch per rail.  Electrical fabrics pay for transceivers
on both ends of every link plus powered switch ports; an OCS rail needs
only the NIC-side transceiver per port and a near-passive chassis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError, RadixExceeded
from .model import Topology, max_gpus


@dataclass(frozen=True)
class EconConfig:
    """Per-unit cost (currency) and power (watts) inputs for fabric BOMs.

    Each cost and power must be finite and >= 0, so a BOM total and the
    savings between two fabrics are numbers; the radix and chassis ports
    are integers of at least 2 and 1."""

    electrical_switch_cost: float
    electrical_switch_radix: int
    electrical_port_power_w: float
    transceiver_cost: float
    transceiver_power_w: float
    ocs_port_cost: float
    ocs_chassis_power_w: float
    ocs_chassis_ports: int

    def __post_init__(self) -> None:
        if self.electrical_switch_radix < 2:
            raise ConfigError("electrical switch radix must be >= 2")
        if self.ocs_chassis_ports < 1:
            raise ConfigError("ocs_chassis_ports must be >= 1")
        for name in ("electrical_switch_cost", "electrical_port_power_w",
                     "transceiver_cost", "transceiver_power_w",
                     "ocs_port_cost", "ocs_chassis_power_w"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:  # nan < 0 is false
                raise ConfigError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class BomItem:
    """One line of a bill of materials."""

    name: str
    count: int
    unit_cost: float
    unit_power_w: float

    @property
    def cost(self) -> float:
        return self.count * self.unit_cost

    @property
    def power_w(self) -> float:
        return self.count * self.unit_power_w


@dataclass(frozen=True)
class FabricBom:
    """Bill of materials for one fabric; totals are count/unit dot products."""

    fabric: str
    items: Tuple[BomItem, ...]

    @property
    def total_cost(self) -> float:
        return sum(item.cost for item in self.items)

    @property
    def total_power_w(self) -> float:
        return sum(item.power_w for item in self.items)

    def count(self, name: str) -> int:
        for item in self.items:
            if item.name == name:
                return item.count
        return 0


def _clos_counts(endpoints: int, radix: int) -> Tuple[int, int, int, int]:
    """Switch, link, and active-port counts for one rail's packet fabric.

    Returns (switches, tiers, links, active_switch_ports).  A single switch
    suffices when the radix covers every endpoint; otherwise a two-tier
    non-oversubscribed Clos assigns half of each leaf's ports down and half
    up, with enough spines to terminate every uplink.
    """
    if endpoints <= radix:
        return 1, 1, endpoints, endpoints
    down = radix // 2
    leaves = math.ceil(endpoints / down)
    uplinks = leaves * down
    spines = math.ceil(uplinks / radix)
    links = endpoints + uplinks
    active_ports = endpoints + 2 * uplinks
    return leaves + spines, 2, links, active_ports


def electrical_fabric_bom(topo: Topology, econ: EconConfig) -> FabricBom:
    """BOM for packet-switched rails: switches, transceivers, powered ports.

    Every link carries a transceiver on each end (NIC-to-leaf and
    leaf-to-spine alike), and every connected switch port draws power.
    """
    rails = topo.gpus_per_domain
    endpoints = topo.num_domains * topo.nic.ports
    if rails == 0 or endpoints == 0:
        return FabricBom("electrical", ())
    switches, _, links, active_ports = _clos_counts(
        endpoints, econ.electrical_switch_radix)
    items = (
        BomItem("electrical_switch", rails * switches,
                econ.electrical_switch_cost, 0.0),
        BomItem("transceiver", rails * 2 * links,
                econ.transceiver_cost, econ.transceiver_power_w),
        BomItem("switch_port_active", rails * active_ports,
                0.0, econ.electrical_port_power_w),
    )
    return FabricBom("electrical", items)


def ocs_fabric_bom(topo: Topology, econ: EconConfig) -> FabricBom:
    """BOM for flat circuit-switched rails: OCS ports, transceivers, chassis.

    The optical path is end to end, so only the NIC side of each port needs
    a transceiver.  One chassis block per ocs_chassis_ports ports per rail.
    """
    rails = topo.gpus_per_domain
    endpoints = topo.num_domains * topo.nic.ports
    if rails == 0 or endpoints == 0:
        return FabricBom("ocs", ())
    radix = topo.rail_switch.radix
    if radix is not None and endpoints > radix:
        raise RadixExceeded(
            f"rail needs {endpoints} OCS ports but radix is {radix}")
    chassis = rails * math.ceil(endpoints / econ.ocs_chassis_ports)
    items = (
        BomItem("ocs_port", rails * endpoints, econ.ocs_port_cost, 0.0),
        BomItem("transceiver", rails * endpoints,
                econ.transceiver_cost, econ.transceiver_power_w),
        BomItem("ocs_chassis", chassis, 0.0, econ.ocs_chassis_power_w),
    )
    return FabricBom("ocs", items)


@dataclass(frozen=True)
class Savings:
    """Fractional cost and power reductions of one BOM against a baseline."""

    cost_saving: float
    power_saving: float


def savings(baseline: FabricBom, alternative: FabricBom) -> Savings:
    """Fraction of baseline cost and power that the alternative avoids."""
    if baseline.total_cost <= 0 or baseline.total_power_w <= 0:
        raise ConfigError("baseline BOM must have positive cost and power")
    return Savings(
        cost_saving=1.0 - alternative.total_cost / baseline.total_cost,
        power_saving=1.0 - alternative.total_power_w / baseline.total_power_w,
    )


@dataclass(frozen=True)
class OcsTech:
    """One circuit-switch technology: reconfiguration time and port radix."""

    name: str
    reconfig_time_s: float
    radix: int


# Vendor-published switching times and radices for shipping OCS product
# classes, smallest to largest reconfiguration delay.
DEFAULT_TECHS: Tuple[OcsTech, ...] = (
    OcsTech("PLZT", 1e-8, 16),
    OcsTech("SiP", 7e-6, 32),
    OcsTech("RotorNet", 1e-5, 128),
    OcsTech("3D MEMS", 15e-3, 320),
    OcsTech("Piezo", 25e-3, 576),
    OcsTech("Liquid crystal", 100e-3, 512),
    OcsTech("Robotic", 120.0, 1008),
)

# Scale-up domain sizes for the two reference GPU generations.
DEFAULT_SCALEUPS: Tuple[Tuple[str, int], ...] = (("GB200", 72), ("H200", 8))


def scalability_table(
    scaleup_sizes: Optional[Sequence[Tuple[str, int]]] = None,
    ocs_techs: Optional[Sequence[OcsTech]] = None,
) -> List[Dict[str, object]]:
    """Largest buildable cluster per (OCS technology, scale-up size).

    Each rail hosts one NIC port per domain and a 2-port NIC splits its
    ports across two switch planes, so a radix-R OCS supports R/2 domains
    and the cluster tops out at scaleup_size * R / 2 GPUs.
    """
    scaleups = list(scaleup_sizes if scaleup_sizes is not None
                    else DEFAULT_SCALEUPS)
    techs = list(ocs_techs if ocs_techs is not None else DEFAULT_TECHS)
    rows: List[Dict[str, object]] = []
    for tech in techs:
        row: Dict[str, object] = {
            "tech": tech.name,
            "reconfig_time_s": tech.reconfig_time_s,
            "radix": tech.radix,
        }
        for label, size in scaleups:
            row[f"max_gpus_{label}"] = max_gpus(size, tech.radix)
        rows.append(row)
    return rows
