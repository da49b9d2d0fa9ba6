"""Physical and logical domain model: topology, rails, NICs, communication groups.

A topology is a set of scale-up domains (D of them), each holding G GPUs.
GPU with local rank r in every domain attaches to rail r, so a rail connects
the same-local-rank GPUs of all domains.  Rails are switched either by an
electrical packet switch (full connectivity) or by a circuit switch with a
bounded radix and a technology-dependent reconfiguration delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import InvalidNicConfig, RadixExceeded

VALID_NIC_PORTS = (1, 2, 4)

ELECTRICAL = "electrical"
OCS = "ocs"


@dataclass(frozen=True)
class NicPortConfig:
    """NIC split into 1, 2 or 4 logical ports of equal bandwidth.

    The total bandwidth ports * per_port_bandwidth is a property of the NIC
    model, so the three splits of e.g. a 400G NIC are 1x400G, 2x200G, 4x100G.
    """

    ports: int
    per_port_bandwidth: float  # bytes per second

    def __post_init__(self):
        if self.ports not in VALID_NIC_PORTS:
            raise InvalidNicConfig(f"NIC port count must be one of {VALID_NIC_PORTS}, got {self.ports}")
        if not 0 < self.per_port_bandwidth < math.inf:
            raise InvalidNicConfig(f"per-port bandwidth must be finite and positive, "
                                   f"got {self.per_port_bandwidth}")


@dataclass(frozen=True)
class RailSwitch:
    kind: str  # ELECTRICAL or OCS
    reconfig_delay: float = 0.0  # seconds, used by OCS only, checked for every kind
    radix: int = 0  # ports, OCS only

    def __post_init__(self):
        if self.kind not in (ELECTRICAL, OCS):
            raise InvalidNicConfig(f"unknown rail switch kind {self.kind!r}")
        if not 0 <= self.reconfig_delay < math.inf:
            raise InvalidNicConfig(f"reconfiguration delay must be finite and >= 0, "
                                   f"got {self.reconfig_delay}")
        if self.kind == OCS and self.radix < 2:
            raise RadixExceeded(f"OCS radix must be >= 2, got {self.radix}")

    @property
    def is_ocs(self) -> bool:
        return self.kind == OCS


@dataclass(frozen=True)
class Topology:
    num_domains: int  # D
    gpus_per_domain: int  # G == number of rails
    scaleup_bandwidth: float  # bytes per second
    nic: NicPortConfig
    rail_switch: RailSwitch

    @property
    def num_ranks(self) -> int:
        return self.num_domains * self.gpus_per_domain

    def rank_id(self, domain: int, local_rank: int) -> int:
        return domain * self.gpus_per_domain + local_rank

    def rail_of(self, global_id: int) -> int:
        return global_id % self.gpus_per_domain

    def ports_per_rail(self) -> int:
        """NIC ports attached to one rail (all of a GPU's ports, D GPUs per rail)."""
        return self.num_domains * self.nic.ports


@dataclass(frozen=True)
class TopologySpec:
    """Topology section of a scenario config."""

    num_domains: int
    gpus_per_domain: int
    scaleup_bandwidth: float
    nic_ports: int
    nic_port_bandwidth: float
    rail_switch_kind: str = ELECTRICAL
    reconfig_delay: float = 0.0
    radix: int = 0


@dataclass(frozen=True)
class CommGroup:
    """Ordered set of ranks that communicate as one NCCL-style group."""

    id: str
    axis: str
    members: tuple  # ordered global rank ids
    rails_touched: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise InvalidNicConfig(f"group {self.id} has duplicate members")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_scaleout(self) -> bool:
        """True when the group runs over a rail rather than inside scale-up."""
        return self.axis != "TP"


def make_group(id: str, axis: str, members: Iterable[int], topo: Optional[Topology] = None) -> CommGroup:
    members = tuple(members)
    rails = frozenset(topo.rail_of(m) for m in members) if topo is not None else frozenset()
    return CommGroup(id=id, axis=axis, members=members, rails_touched=rails)


def build_topology(spec: TopologySpec) -> Topology:
    """Validate a topology spec and materialize the rank/rail mapping."""
    if spec.num_domains < 2:
        raise InvalidNicConfig(f"need at least 2 scale-up domains, got {spec.num_domains}")
    if spec.gpus_per_domain < 1:
        raise InvalidNicConfig("need at least 1 GPU per domain")
    if not 0 < spec.scaleup_bandwidth < math.inf:
        raise InvalidNicConfig(f"scale-up bandwidth must be finite and positive, "
                               f"got {spec.scaleup_bandwidth}")
    nic = NicPortConfig(ports=spec.nic_ports, per_port_bandwidth=spec.nic_port_bandwidth)
    switch = RailSwitch(kind=spec.rail_switch_kind, reconfig_delay=spec.reconfig_delay, radix=spec.radix)
    topo = Topology(
        num_domains=spec.num_domains,
        gpus_per_domain=spec.gpus_per_domain,
        scaleup_bandwidth=spec.scaleup_bandwidth,
        nic=nic,
        rail_switch=switch,
    )
    if switch.is_ocs and topo.ports_per_rail() > switch.radix:
        raise RadixExceeded(
            f"rail needs {topo.ports_per_rail()} OCS ports "
            f"({spec.num_domains} domains x {nic.ports} NIC ports) but radix is {switch.radix}"
        )
    return topo


def max_gpus(scaleup_size: int, radix: int) -> int:
    """Largest GPU count a flat circuit-switched rail fabric supports.

    Uses the 2-port NIC configuration with bidirectional transceivers:
    GPUs = scale-up size * radix / 2.
    """
    if scaleup_size < 1:
        raise InvalidNicConfig("scale-up size must be >= 1")
    if radix < 2:
        raise RadixExceeded("radix must be >= 2")
    return scaleup_size * radix // 2


def ports_needed(group: CommGroup) -> int:
    """Simultaneous circuits each member holds while the ring is up."""
    return 1 if group.size <= 2 else 2
