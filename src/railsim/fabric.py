"""Deterministic discrete-event simulation of an event DAG over a topology.

Collective durations follow a latency/bandwidth ring model (rings are the
only collectives a degree-limited circuit rail supports).  Electrical rails
offer full congestion-free connectivity, so an event starts as soon as its
slowest participant is ready.  Circuit-switched rails additionally require
the event's ring to be configured; reconfiguration timing is delegated to
the control plane.  A reconfiguration delay of zero is modeled as full
connectivity (switching is free), which makes the zero-delay circuit fabric
exactly equivalent to the electrical baseline.

A `Prepared` simulation compiles the DAG once (`_CompiledDag`): on top of the
`EventDag`'s columns, whose rows number the events in insertion order, it
derives dependent lists, in-degrees, collective durations, group ids and
needs-circuit flags.  The electrical longest path, the provisioning
profiler's input and the circuit engine all run from it, and a delay sweep
reuses it at every point.  Start and end times are kept in arrays by row; a
run's `SimResult.event_times` builds each `EventTiming` from them on lookup.
Compiling is the gate for every DAG, generated, hand-built or parsed: it
rejects a dependency naming no event, a collective naming no group or whose
ranks differ from its group's members, and a scale-out group that does not
sit on exactly its one declared rail.  Timing the electrical longest path
rejects a dependency cycle.

A DAG with the generator's `rail_symmetric` record and two or more rails is
compiled and timed on rail 0 only (`_Twins`): rail 0's rows and the TP rows
that span rails, each dependency on another rail's row pointing to its
rail-0 twin.  Rails share no port, group or controller queue, so every rail
sees rail 0's grants and times.  The run's result copies each row's start
and end from its twin, and each log entry to every rail with group ids,
ranks and rails mapped to the twins (the circuit and transfer logs on first
access).  Such a run's start order and logs list twins together, rail by
rail, where a run of every rail would interleave them; as multisets they
are the same.  Traces, hand-built DAGs and one-rail DAGs are timed row by
row.

An event starts once its last dependency has finished.  Per-rank join times
(`_joins`: a rank joins at the latest end among the dependencies that
include it or that share no rank with the event) are computed only when
asked for: by a circuit request, the `timeline.csv` writer and an
`EventTiming` lookup.  The circuit engine (`_Engine`) runs from a calendar
queue: each time's entries in push order, under a heap of the distinct
times.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .control import Controller, ReconfigLogEntry, profile_iteration
from .errors import ConflictDeadlock, CyclicDependency, NotMember, UnsupportedKind
from .model import CommGroup, Topology
from .workload import (ALLGATHER, ALLREDUCE, COLLECTIVE, REDUCESCATTER, SENDRECV,
                       EventDag)


def collective_time(kind: str, bytes_per_rank: int, n: int, bandwidth: float,
                    alpha: float) -> float:
    """Ring-model duration of one collective; n is the group size."""
    if n <= 1:
        return 0.0
    if bandwidth <= 0:
        raise UnsupportedKind("bandwidth must be positive")
    s = float(bytes_per_rank)
    if kind == ALLREDUCE:
        return 2.0 * (n - 1) / n * s / bandwidth + 2.0 * (n - 1) * alpha
    if kind in (ALLGATHER, REDUCESCATTER):
        return (n - 1) / n * s / bandwidth + (n - 1) * alpha
    if kind == SENDRECV:
        return s / bandwidth + alpha
    raise UnsupportedKind(f"no ring realization for {kind}")


@dataclass
class ControlPolicy:
    provisioning: bool = False
    alpha: float = 1e-6  # per-ring-hop latency, seconds

    @property
    def label(self) -> str:
        return "provisioning" if self.provisioning else "reactive"


@dataclass(slots=True)
class EventTiming:
    """When one event ran: simulated, or observed in a trace."""

    start: float  # actual transfer/compute start
    end: float
    starts: Optional[Dict[int, float]] = None  # per-rank join time (None: only `start` known)


@dataclass
class SimResult:
    """One run's makespan, timing and logs.

    `circuit_log` and `transfer_log` are built on first access: a run timed
    on rail 0 only (`_Twins`) keeps rail 0's logs and copies them to the
    other rails then.
    """

    makespan: float
    event_times: Timeline  # event id -> EventTiming
    reconfig_log: list
    overhead_vs_baseline: Optional[float] = None
    _circuits: list = field(default_factory=list, repr=False)  # as the engine logged them
    _transfers: list = field(default_factory=list, repr=False)
    _twins: Optional[_Twins] = field(default=None, repr=False)

    @cached_property
    def circuit_log(self) -> list:
        """(rail, rank, port, group, up, down) of every circuit."""
        if self._twins is None:
            return self._circuits
        return self._twins.circuits(self._circuits)

    @cached_property
    def transfer_log(self) -> list:
        """(event, rank, port, start, end) of every transfer."""
        if self._twins is None:
            return self._transfers
        return self._twins.transfers(self._transfers)


def _check_groups(dag: EventDag, topo: Topology) -> Dict[str, Set[int]]:
    """Reject scale-out groups off their declared rail; returns member sets."""
    members = {}
    for gid, g in dag.groups.items():
        members[gid] = set(g.members)
        if not g.is_scaleout:
            continue
        rails = {topo.rail_of(m) for m in g.members}
        if rails != g.rails_touched or len(rails) > 1:
            raise NotMember(f"group {gid} members sit on rails {sorted(rails)}, declared "
                            f"{sorted(g.rails_touched)}; a scale-out group needs one rail")
    return members


class _Twins:
    """How the rail-symmetric `dag` maps onto rail 0 (see
    `EventDag.rail_symmetric`).

    `rows` are the rows a run times, in row order: rail 0's and those whose
    ranks span rails.  `twin[i]` is the timed row that row i copies: itself,
    or its rail-0 twin.  `copies[i]` of a timed row i is the rows that copy
    it, rail by rail (itself alone for a row spanning rails).  `spans` are
    the rows spanning rails, and `groups[gid]` is rail-0 group gid's twins
    by rail.  Rank r on rail 0 sits in domain r // G, so its twin on rail l
    is r + l.
    """

    __slots__ = ("dag", "rows", "twin", "copies", "spans", "groups")

    def __init__(self, dag: EventDag, rails: int):
        self.dag = dag
        by_rail: List[List[int]] = [[] for _ in range(rails)]
        self.rows, self.spans = rows, spans = [], []
        for i, rs in enumerate(dag.ranks):
            rail = rs[0] % rails
            if rs[-1] % rails != rail:
                rows.append(i)
                spans.append(i)
                continue
            by_rail[rail].append(i)
            if not rail:
                rows.append(i)
        n = len(dag.ranks)
        self.twin = twin = list(range(n))
        rail0 = by_rail[0]
        for others in by_rail[1:]:
            for i, j in zip(others, rail0):
                twin[i] = j
        self.copies = copies = [()] * n
        for i in spans:
            copies[i] = (i,)
        for same in zip(*by_rail):
            copies[same[0]] = same
        groups: List[List[str]] = [[] for _ in range(rails)]
        for gid, g in dag.groups.items():
            if g.is_scaleout:
                groups[g.members[0] % rails].append(gid)
        self.groups = {gids[0]: gids for gids in zip(*groups)}

    def timing(self, order: List[int], start: List[float],
               end: List[float]) -> Tuple[List[int], List[float], List[float]]:
        """Every row's start order, start and end from the timed rows'."""
        copies, twin = self.copies, self.twin
        return ([i for k in order for i in copies[k]],
                [start[k] for k in twin], [end[k] for k in twin])

    def stuck(self, order: List[int]) -> int:
        """Events that a run which started the timed rows `order` left out."""
        copies = self.copies
        return len(self.twin) - sum(len(copies[k]) for k in order)

    def reconfigs(self, log: List[ReconfigLogEntry]) -> List[ReconfigLogEntry]:
        groups = self.groups
        return [ReconfigLogEntry(e.time, rail, gid, e.speculative, e.delay, e.ports_changed)
                for e in log for rail, gid in enumerate(groups[e.group])]

    def circuits(self, log: List[tuple]) -> List[tuple]:
        groups = self.groups
        return [(rail, rank + rail, port, gid, up, down)
                for _, rank, port, g, up, down in log
                for rail, gid in enumerate(groups[g])]

    def transfers(self, log: List[tuple]) -> List[tuple]:
        copies, ids, index = self.copies, self.dag.ids, self.dag.index
        return [(ids[i], rank + rail, port, start, end)
                for eid, rank, port, start, end in log
                for rail, i in enumerate(copies[index[eid]])]


class _CompiledDag:
    """What simulating one EventDag on one topology needs beyond its columns.

    Events keep their DAG rows, numbered in insertion order; `ids`, `index`,
    `ranks`, `deps` and the durations of compute events come from the DAG.
    `rows` are the rows a run times: every row, or with `twins` rail 0's and
    those spanning rails, whose dependencies on another rail's row then
    point to its rail-0 twin (each once); `twins` is kept.  The other rows' entries are
    unused.  `dependents` lists are in row order: the engine's push order,
    and with it every controller decision, depends on it.  A dependency
    naming no event raises MissingDependency, and a collective naming no
    group raises NotMember.
    """

    __slots__ = ("ids", "index", "ranks", "deps", "rows", "twins", "dependents",
                 "indeg", "duration", "group", "circuit")

    def __init__(self, dag: EventDag, topo: Topology, alpha: float,
                 twins: Optional[_Twins] = None):
        members = _check_groups(dag, topo)
        dag.resolve()
        groups, deps = dag.groups, dag.deps
        n = len(deps)
        if twins is None:
            rows = range(n)
            dependents = [[] for _ in range(n)]
        else:
            rows, twin, deps = twins.rows, twins.twin, list(deps)
            for i in twins.spans:
                deps[i] = tuple(dict.fromkeys([twin[d] for d in deps[i]]))
            dependents = [None] * n
            for i in rows:
                dependents[i] = []
        self.ids, self.index, self.ranks, self.deps = dag.ids, dag.index, dag.ranks, deps
        self.rows, self.twins, self.dependents = rows, twins, dependents
        ranks = dag.ranks
        self.indeg = indeg = [0] * n
        self.duration = duration = list(dag.duration)
        self.group = group = [None] * n
        self.circuit = circuit = [False] * n
        kind, dag_group, coll_kind, nbytes = dag.kind, dag.group, dag.coll_kind, dag.bytes
        for i in rows:
            ds = deps[i]
            indeg[i] = len(ds)
            for d in ds:
                dependents[d].append(i)
            if kind[i] == COLLECTIVE:
                rs = ranks[i]
                gid = dag_group[i]
                g = groups.get(gid)
                if g is None:
                    raise NotMember(f"collective {self.ids[i]} names unknown group {gid}")
                if set(rs) != members[gid]:
                    raise NotMember(f"collective {self.ids[i]} ranks {sorted(rs)} differ from "
                                    f"group {gid} members {sorted(g.members)}")
                bandwidth = (topo.scaleup_bandwidth if g.axis == "TP"
                             else topo.nic.per_port_bandwidth)
                duration[i] = collective_time(coll_kind[i], nbytes[i], g.size, bandwidth, alpha)
                group[i] = gid
                circuit[i] = g.is_scaleout and g.size >= 2


def _joins(c, i: int, start: List[float], end: List[float]) -> Dict[int, float]:
    """Per-rank issue time: a rank joins once its own dependencies finish.

    `c` is a `_CompiledDag` or an `EventDag`: its `ranks` and `deps` by row.
    A rank of a multi-rank event joins at the latest end among the
    dependencies that include it or that share no rank with the event, so
    its latest join is the latest end among all its dependencies.  An event
    with one rank joins when it starts.
    """
    ranks = c.ranks[i]
    if len(ranks) < 2:
        return {ranks[0]: start[i]} if ranks else {}
    joins = dict.fromkeys(ranks, 0.0)
    everyone = 0.0  # the latest end among dependencies sharing no rank
    dep_ranks = c.ranks
    for d in c.deps[i]:
        e = end[d]
        shared = False
        for r in dep_ranks[d]:
            if r in joins:
                shared = True
                if e > joins[r]:
                    joins[r] = e
        if not shared and e > everyone:
            everyone = e
    if everyone:
        for r, t in joins.items():
            if everyone > t:
                joins[r] = everyone
    return joins


def _longest_path(c: _CompiledDag) -> Tuple[List[float], List[float], List[int]]:
    """Start and end of every event with full connectivity (electrical rails
    or free switching), and the order they were timed in: level by level,
    each level in row order.  Only `c.rows` are timed."""
    n = len(c.ids)
    start = [0.0] * n  # the latest end among dependencies timed so far
    end = [0.0] * n
    indeg = list(c.indeg)
    duration, dependents = c.duration, c.dependents
    order: List[int] = []
    ready = [i for i in c.rows if not indeg[i]]
    while ready:
        order += ready
        next_ready: List[int] = []
        for i in ready:
            e = end[i] = start[i] + duration[i]
            for j in dependents[i]:
                if e > start[j]:
                    start[j] = e
                indeg[j] -= 1
                if not indeg[j]:
                    next_ready.append(j)
        next_ready.sort()
        ready = next_ready
    if len(order) != len(c.rows):
        raise CyclicDependency("event DAG contains a cycle")
    return start, end, order


class Timeline(Mapping):
    """A run's `EventTiming` of every event by id, built on lookup from the
    run's arrays; iterates in the order the events started.

    `start` and `end` are indexed by DAG row, and `starts(i)` gives row i's
    per-rank join times.  A run timed on rail 0 only passes its `_Twins`:
    the first read of `order`, `start` or `end` copies the timed rows'
    times to their twins, and `order` then lists each row's twins together,
    rail by rail.  A full-connectivity run shares its arrays with its
    `Prepared` simulation, so they are read, never changed.
    """

    __slots__ = ("_dag", "_twins", "_order", "_start", "_end")

    def __init__(self, dag: EventDag, order: List[int], start: List[float],
                 end: List[float], twins: Optional[_Twins] = None):
        self._dag, self._twins = dag, twins
        self._order, self._start, self._end = order, start, end

    def _timing(self) -> Tuple[List[int], List[float], List[float]]:
        if self._twins is not None:
            self._order, self._start, self._end = self._twins.timing(
                self._order, self._start, self._end)
            self._twins = None
        return self._order, self._start, self._end

    @property
    def order(self) -> List[int]:
        return self._timing()[0]

    @property
    def start(self) -> List[float]:
        return self._timing()[1]

    @property
    def end(self) -> List[float]:
        return self._timing()[2]

    @property
    def ids(self) -> List[str]:
        return self._dag.ids

    @property
    def ranks(self) -> List[tuple]:
        return self._dag.ranks

    def starts(self, i: int) -> Dict[int, float]:
        return _joins(self._dag, i, self.start, self.end)

    def __getitem__(self, eid: str) -> EventTiming:
        i = self._dag.index[eid]
        return EventTiming(self.start[i], self.end[i], self.starts(i))

    def __contains__(self, eid) -> bool:
        return eid in self._dag.index

    def __iter__(self) -> Iterator[str]:
        ids = self._dag.ids
        return (ids[i] for i in self.order)

    def __len__(self) -> int:
        return len(self.order)


class _Engine:
    """Time-ordered simulation with circuit lifecycle on OCS rails.

    `calendar` maps each pending time to its entries in push order, and the
    heap `times` holds each later time once.  An entry is row i when event
    i's dependencies are done, ~i when it finished, and None when a circuit
    comes up (a wake-up for the scan).  A time's entries run in push order,
    then the controller scans; entries pushed at that time meanwhile go to
    the calendar's list for it, which runs after the scan as the next batch
    at the same time without a trip through the heap.

    An event's dependencies are done when the last of them finishes, so it
    joins then, at the time its entry runs.  It starts there unless it needs
    a ring that is not up; then it waits in `waiting`, and only a request
    builds the per-rank joins.  It requests the ring unless the ring is being
    reconfigured already: the wake-up when that ring comes up releases it.
    A released event starts when its ring is up: at a grant's ready time or
    at the wake-up.  `run` leaves the times in `start`, `end` and `order`.
    When `c` times rail 0 only, a deadlock counts every rail's stuck events.
    """

    def __init__(self, c: _CompiledDag, groups: Dict[str, CommGroup], topo: Topology,
                 schedule: Optional[dict]):
        self.c = c
        self.controller = Controller(topo, groups)
        n = len(c.ids)
        self.start = [0.0] * n
        self.end = [0.0] * n
        self.order: List[int] = []  # events in the order they started
        self.indeg = list(c.indeg)
        self.calendar: Dict[float, list] = {}  # time -> entries, in push order
        self.times: List[float] = []  # heap of the calendar's times
        self.waiting: Dict[str, List[int]] = {}  # group -> issued events awaiting circuits
        self.transfer_log: List[tuple] = []
        # Provisioning state: profiled schedule and per-phase completion counts.
        self.schedule = schedule or {}
        self.phase_of: Dict[int, Tuple[int, int]] = {}
        self.phase_left: Dict[Tuple[int, int], int] = {}
        for rail, phases in self.schedule.items():
            for k, ph in enumerate(phases):
                self.phase_left[(rail, k)] = len(ph.events)
                for i in ph.events:
                    self.phase_of[i] = (rail, k)

    def _push(self, t: float, entry: Optional[int]) -> None:
        entries = self.calendar.get(t)
        if entries is None:
            self.calendar[t] = [entry]
            heappush(self.times, t)
        else:
            entries.append(entry)

    def _protected(self) -> Set[str]:
        return self.waiting.keys() | self.controller.pending.keys()

    def _start_circuit(self, i: int, start: float) -> None:
        """Start circuit event i; its ring's ports carry the transfer."""
        c = self.c
        end = start + c.duration[i]
        self.start[i] = start
        self.end[i] = end
        self.order.append(i)
        eid = c.ids[i]
        for rank, port in self.controller.mark_busy(c.group[i], start, end):
            self.transfer_log.append((eid, rank, port, start, end))
        self._push(end, ~i)

    def _provision_on_finish(self, i: int, now: float) -> None:
        key = self.phase_of[i]
        self.phase_left[key] -= 1
        if self.phase_left[key] > 0:
            return
        rail, k = key
        phases = self.schedule[rail]
        if k + 1 >= len(phases):
            return
        controller = self.controller
        for gid in sorted(phases[k + 1].groups):
            g = controller.groups[gid]
            if not g.is_scaleout or g.size < 2:
                continue
            # Up, being reconfigured, or requested already.
            if gid in controller.ready_at or gid in controller.pending:
                continue
            controller.request(gid, dict.fromkeys(g.members, now), speculative=True)

    def run(self) -> None:
        c = self.c
        controller = self.controller
        waiting, phase_of = self.waiting, self.phase_of
        calendar, times = self.calendar, self.times
        indeg, start, end, order = self.indeg, self.start, self.end, self.order
        duration, circuit, group, dependents = c.duration, c.circuit, c.group, c.dependents
        pending = controller.pending
        now = 0.0
        batch = [i for i in c.rows if not indeg[i]]  # the roots
        finished = 0
        while True:
            # Entries pushed at `now` meanwhile: the next batch at this time.
            after = calendar[now] = []
            for x in batch:
                if x is None:
                    continue  # a circuit came up; the scan below serves it
                if x < 0:  # ~i: event i finished
                    i = ~x
                    finished += 1
                    if i in phase_of:
                        self._provision_on_finish(i, now)
                    for j in dependents[i]:
                        indeg[j] -= 1
                        if not indeg[j]:
                            after.append(j)
                    continue
                if circuit[x]:  # x: its dependencies are done
                    gid = group[x]
                    if controller.group_up(gid, now):
                        self._start_circuit(x, now)
                        continue
                    waiting.setdefault(gid, []).append(x)
                    if gid not in controller.ready_at:  # else its ring is being reconfigured
                        controller.request(gid, _joins(c, x, start, end), speculative=False)
                    continue
                start[x] = now
                e = end[x] = now + duration[x]
                order.append(x)
                entries = calendar.get(e)
                if entries is None:
                    calendar[e] = [~x]
                    heappush(times, e)
                else:
                    entries.append(~x)
            # With no request pending, a scan grants nothing.
            if pending:
                for gid, ready in controller.scan(now, self._protected()):
                    if ready > now:
                        self._push(ready, None)
                        continue
                    for i in waiting.pop(gid, []):
                        self._start_circuit(i, ready)
            # Circuits that just came up release their waiting events.
            if waiting:
                for gid in [g for g, evs in waiting.items()
                            if evs and controller.group_up(g, now)]:
                    for i in waiting.pop(gid):
                        self._start_circuit(i, now)
            del calendar[now]
            if after:
                batch = after
            elif times:
                now = heappop(times)
                batch = calendar.pop(now)
            else:
                break
        total = len(c.rows)
        if finished != total:
            if pending or waiting:
                stuck = total - finished if c.twins is None else c.twins.stuck(order)
                raise ConflictDeadlock(
                    f"{stuck} events stuck behind the reconfiguration queue")
            raise CyclicDependency("event DAG contains a cycle")


class Prepared:
    """The delay-independent part of simulating one DAG on one topology.

    Holds the compiled DAG, the full-connectivity start/end/order arrays and
    the baseline makespan; the profiled phase schedule is built on the first
    provisioned run.  Pass it to `simulate` as ``prepared`` to run the same
    DAG at other reconfiguration delays without repeating that work.  A run
    whose DAG, alpha or topology (other than `rail_switch.reconfig_delay`)
    differs is refused.  The compiled DAG reads the DAG's columns in place,
    so the DAG must not change while it is prepared.

    For a DAG with the `rail_symmetric` record on two or more rails, `twins`
    maps it onto rail 0 and only `twins.rows` are compiled and timed: the
    start and end of row i are those of row `twins.twin[i]`, which a run's
    `Timeline` copies.  Otherwise `twins` is None and every row is timed.
    """

    __slots__ = ("dag", "alpha", "twins", "c", "start", "end", "order",
                 "baseline_makespan", "_topo", "_schedule")

    def __init__(self, dag: EventDag, topo: Topology, alpha: float):
        self.dag, self.alpha = dag, alpha
        self._topo = _without_delay(topo)
        rails = topo.num_rails
        self.twins = _Twins(dag, rails) if dag.rail_symmetric and rails > 1 else None
        self.c = _CompiledDag(dag, topo, alpha, self.twins)
        self.start, self.end, self.order = _longest_path(self.c)
        self.baseline_makespan = max(self.end, default=0.0)
        self._schedule: Optional[dict] = None

    def check(self, dag: EventDag, topo: Topology, alpha: float) -> None:
        if dag is not self.dag:
            raise ValueError("prepared for another event DAG")
        if alpha != self.alpha:
            raise ValueError(f"prepared for alpha {self.alpha!r}, not {alpha!r}")
        if _without_delay(topo) != self._topo:
            raise ValueError("prepared for a topology that differs in more than "
                             "the reconfiguration delay")

    def schedule(self) -> dict:
        """The provisioning profiler's per-rail phase schedule (rail 0's
        alone when the DAG is timed on rail 0 only)."""
        if self._schedule is None:
            rails = range(self._topo.num_rails) if self.twins is None else (0,)
            # At full connectivity every rank has joined by the start.
            self._schedule = profile_iteration(self.dag, self.start, self.end, rails)
        return self._schedule


def _without_delay(topo: Topology) -> Topology:
    return replace(topo, rail_switch=replace(topo.rail_switch, reconfig_delay=0.0))


def simulate(dag: EventDag, topo: Topology, policy: Optional[ControlPolicy] = None,
             force_baseline: bool = False, *,
             prepared: Optional[Prepared] = None) -> SimResult:
    """Simulate one iteration of `dag` on `topo` under a control policy.

    With ``force_baseline`` the run ignores circuit switching and returns the
    full-connectivity timing (useful for idealized reference timelines).
    ``prepared`` reuses the delay-independent work of an earlier
    `Prepared(dag, topo, policy.alpha)`; ValueError if it was built for
    another DAG, alpha or topology.
    Raises MissingDependency for a dependency naming no event, NotMember for
    a collective naming no group or whose ranks differ from its group's
    members, or a scale-out group not on exactly its one declared rail, and
    CyclicDependency for a dependency cycle.
    """
    policy = policy or ControlPolicy()
    if prepared is None:
        prepared = Prepared(dag, topo, policy.alpha)
    else:
        prepared.check(dag, topo, policy.alpha)
    baseline_makespan = prepared.baseline_makespan
    ocs_active = topo.rail_switch.is_ocs and topo.rail_switch.reconfig_delay > 0
    if force_baseline or not ocs_active:
        # Full connectivity (electrical, or free switching): no circuit events.
        timeline = Timeline(dag, prepared.order, prepared.start, prepared.end,
                            prepared.twins)
        return SimResult(makespan=baseline_makespan, event_times=timeline,
                         reconfig_log=[], overhead_vs_baseline=1.0)
    schedule = prepared.schedule() if policy.provisioning else None
    twins = prepared.twins
    engine = _Engine(prepared.c, dag.groups, topo, schedule)
    engine.run()
    makespan = max(engine.end, default=0.0)
    controller = engine.controller
    controller.close(makespan)
    log = controller.log if twins is None else twins.reconfigs(controller.log)
    return SimResult(
        makespan=makespan,
        event_times=Timeline(dag, engine.order, engine.start, engine.end, twins),
        reconfig_log=log,
        overhead_vs_baseline=(makespan / baseline_makespan if baseline_makespan else 1.0),
        _circuits=controller.circuit_intervals,
        _transfers=engine.transfer_log,
        _twins=twins,
    )


def sweep_delay(dag: EventDag, topo: Topology, delays: Sequence[float],
                policies: Sequence[ControlPolicy]) -> List[tuple]:
    """Makespan and overhead per (delay, policy); rows ordered by input order.

    Points run serially through `simulate`, sharing one `Prepared` per
    distinct policy alpha.
    """
    prepared: Dict[float, Prepared] = {}
    rows = []
    for d in delays:
        t = replace(topo, rail_switch=replace(topo.rail_switch, reconfig_delay=d))
        for p in policies:
            prep = prepared.get(p.alpha)
            if prep is None:
                prep = prepared[p.alpha] = Prepared(dag, topo, p.alpha)
            r = simulate(dag, t, p, prepared=prep)
            rows.append((d, p.label, r.makespan, r.overhead_vs_baseline))
    return rows
