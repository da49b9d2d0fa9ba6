"""Circuit control plane for reconfigurable rails.

The paper's shim, which intercepts collective calls and asks for a ring only
when its group's circuits are not up, is the step of the circuit engine's
loop (`fabric._Engine.run`) that takes an event whose dependencies are done.
The first iteration's phase schedule comes
from `profile_iteration`, which reads the same per-row start and end lists
as the window analysis: the caller supplies each row's communication start,
the slowest member's join.  With provisioning enabled, the engine
(`fabric._Engine._provision_on_finish`) requests the next phase's rings
speculatively as soon as the previous phase's traffic completes, so the
switching delay hides inside the idle window.  The `Controller` realizes
requests in first-come-first-serve order: each scan walks the pending
requests rail by rail, on each rail by earliest request, then by group id.
A group's reconfiguration starts only once every member rank has requested
it (collective-barrier semantics), no request before it in that order still
waits for one of its ranks, and no touched port carries ongoing traffic.  A
group's circuits stay cached on its ports until another group evicts them,
so a ring that is still up is reused without a new reconfiguration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .errors import DegreeInfeasible
from .model import CommGroup, Topology, ports_needed
from .windows import Times, rail_collectives
from .workload import EventDag


@dataclass
class ReconfigLogEntry:
    time: float
    rail: int
    group: str
    speculative: bool
    delay: float
    ports_changed: int


@dataclass
class ControlPhase:
    """One entry of a profiled per-rail schedule."""

    groups: frozenset
    events: tuple  # DAG rows, in start order


def profile_iteration(dag: EventDag, start: Times, end: Times) -> Dict[int, List[ControlPhase]]:
    """Ordered phase schedule of each rail that `dag.scaleout_by_rail()`
    names, from a first-iteration timeline: `start` and `end` by DAG row, as
    `windows.rail_collectives` reads them.

    Consecutive collectives join the current phase when their group is already
    part of it or when they overlap the phase in time; otherwise a new phase
    starts.  Idempotent: identical timelines give identical schedules.
    """
    schedule: Dict[int, List[ControlPhase]] = {}
    group = dag.group
    for rail in sorted(dag.scaleout_by_rail()):
        phases: List[ControlPhase] = []
        cur_events: List[int] = []
        cur_groups: Set[str] = set()
        cur_max_end = float("-inf")
        for i in rail_collectives(dag, start, end, rail):
            g = group[i]
            if cur_events and g not in cur_groups and start[i] >= cur_max_end:
                phases.append(ControlPhase(frozenset(cur_groups), tuple(cur_events)))
                cur_events, cur_groups, cur_max_end = [], set(), float("-inf")
            cur_events.append(i)
            cur_groups.add(g)
            cur_max_end = max(cur_max_end, end[i])
        if cur_events:
            phases.append(ControlPhase(frozenset(cur_groups), tuple(cur_events)))
        schedule[rail] = phases
    return schedule


@dataclass
class _Port:
    group: Optional[str] = None
    busy_until: float = 0.0
    reconfig_until: float = 0.0  # when its current circuit is (or came) up


@dataclass
class _Pending:
    times: Dict[int, float]  # per-rank request time
    group: CommGroup  # each of its members must request
    speculative: bool

    def __post_init__(self) -> None:
        self.rail = next(iter(self.group.rails_touched))  # a scale-out group's one rail
        self.merge({}, self.speculative)

    def merge(self, times: Mapping[int, float], speculative: bool) -> None:
        """Fold a later request of the same group into this one."""
        for rank, t in times.items():
            self.times[rank] = min(self.times.get(rank, float("inf")), t)
        self.speculative = self.speculative and speculative
        times, g = self.times, self.group
        # FC-FS position: rail, earliest request, group id.
        self.position = (self.rail, min(times.values()), g.id)
        # The barrier opens once every member rank has requested.
        self.barrier_time = (max(times.values())
                             if all(m in times for m in g.members) else math.inf)


class Controller:
    """Port-level circuit state for every rail of one topology."""

    def __init__(self, topo: Topology, groups: Dict[str, CommGroup]):
        self.topo = topo
        self.delay = topo.rail_switch.reconfig_delay
        self.groups = groups
        self.pending: Dict[str, _Pending] = {}  # group -> its queued request
        self.ports: Dict[int, List[_Port]] = {}  # rank -> its rail ports and their circuits
        # group -> time its ring is (or becomes) fully configured
        self.ready_at: Dict[str, float] = {}
        self.log: List[ReconfigLogEntry] = []
        self.circuit_intervals: List[tuple] = []  # (rail, rank, port, group, up, down)
        for g in groups.values():
            if g.is_scaleout and g.size >= 2 and ports_needed(g) > topo.nic.ports:
                raise DegreeInfeasible(
                    f"group {g.id} ring needs {ports_needed(g)} ports per rank, "
                    f"NIC has {topo.nic.ports}"
                )

    def _rank_ports(self, rank: int) -> List[_Port]:
        if rank not in self.ports:
            self.ports[rank] = [_Port() for _ in range(self.topo.nic.ports)]
        return self.ports[rank]

    def group_up(self, gid: str, t: float) -> bool:
        return gid in self.ready_at and self.ready_at[gid] <= t

    def request(self, gid: str, times: Dict[int, float], speculative: bool) -> None:
        """Enqueue (or merge) a request; `times` maps issuer rank to issue time."""
        p = self.pending.get(gid)
        if p is None:
            self.pending[gid] = _Pending(dict(times), self.groups[gid], speculative)
        else:
            p.merge(times, speculative)

    def scan(self, now: float, protected: Set[str]) -> List[Tuple[str, float]]:
        """Serve eligible requests in FC-FS order; returns (group, ready_time).

        The order is over `pending`: rail by rail, on each rail by earliest
        request, then by group id.  A request that cannot be served blocks
        its ranks for every request after it; a rank sits on one rail, so
        one set of blocked ranks serves every rail.  `protected` groups may
        not be evicted (they have traffic waiting or a pending request of
        their own).
        """
        pending = self.pending
        grants: List[Tuple[str, float]] = []
        blocked_ranks: Set[int] = set()
        for p in sorted(pending.values(), key=lambda p: p.position):
            members = p.group.members
            if p.barrier_time > now or not blocked_ranks.isdisjoint(members):
                blocked_ranks.update(members)
                continue
            ready = self._try_apply(p, now, protected)
            if ready is None:
                blocked_ranks.update(members)
            else:
                gid = p.group.id
                del pending[gid]
                grants.append((gid, ready))
        return grants

    def _try_apply(self, p: _Pending, now: float, protected: Set[str]) -> Optional[float]:
        """Configure the group's ring if every touched port is idle."""
        g = p.group
        gid = g.id
        ready = self.ready_at.get(gid)
        if ready is not None:  # up, or a reconfiguration already in flight
            return ready if ready > now else now
        need = ports_needed(g)
        chosen: Dict[int, List[int]] = {}
        for rank in g.members:
            ports = self._rank_ports(rank)
            have = [i for i, port in enumerate(ports) if port.group == gid]
            missing = need - len(have)
            if missing > 0:
                candidates = [
                    i for i, port in enumerate(ports)
                    if port.group != gid
                    and port.busy_until <= now
                    and port.reconfig_until <= now
                    and (port.group is None or port.group not in protected)
                ]
                if len(candidates) < missing:
                    return None
                if len(candidates) > 1:  # free ports first, then least recently used
                    candidates.sort(key=lambda i: (ports[i].group is not None,
                                                   ports[i].busy_until, i))
                have += candidates[:missing]
            chosen[rank] = have[:need]
        changed = 0
        for rank, idxs in chosen.items():
            ports = self._rank_ports(rank)
            for i in idxs:
                port = ports[i]
                if port.group == gid:
                    continue
                if port.group is not None:
                    self._tear(rank, i, now)
                port.group = gid
                port.reconfig_until = now + self.delay
                changed += 1
        ready = now + self.delay if changed else now
        self.ready_at[gid] = ready
        self.log.append(ReconfigLogEntry(time=now, rail=p.rail, group=gid,
                                         speculative=p.speculative, delay=self.delay,
                                         ports_changed=changed))
        return ready

    def _tear(self, rank: int, idx: int, now: float) -> None:
        port = self._rank_ports(rank)[idx]
        old = port.group
        rail = self.topo.rail_of(rank)
        self.circuit_intervals.append(
            (rail, rank, idx, old, port.reconfig_until, now))
        # The evicted group's ring is no longer complete.
        self.ready_at.pop(old, None)
        port.group = None

    def mark_busy(self, gid: str, start: float, end: float) -> List[Tuple[int, int]]:
        """Mark the group's circuit ports busy for one transfer; returns
        their (rank, port index) pairs, by member rank, then port index.
        A rank holds at most `ports_needed` ports of one group, those
        `_try_apply` chose for it."""
        used = []
        ports = self.ports
        for rank in self.groups[gid].members:
            for i, port in enumerate(ports.get(rank, ())):
                if port.group == gid:
                    if end > port.busy_until:
                        port.busy_until = end
                    used.append((rank, i))
        return used

    def close(self, t: float) -> None:
        """Flush remaining circuit intervals at end of simulation."""
        for rank, ports in self.ports.items():
            for i, port in enumerate(ports):
                if port.group is not None:
                    self.circuit_intervals.append(
                        (self.topo.rail_of(rank), rank, i, port.group,
                         port.reconfig_until, t))
