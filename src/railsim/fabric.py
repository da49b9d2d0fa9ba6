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
rejects a rank the topology does not have, a dependency naming no event, a
collective naming no group or whose ranks differ from its group's members,
and a scale-out group that does not sit on exactly its one declared rail.
Timing the electrical longest path rejects a dependency cycle.

A generated DAG, or a rail-symmetric trace the parser held, holds rail 0's
rows and the TP rows that span rails, each other row standing for its twin
on every rail (`EventDag.rails`).  Rails
share no port, group or controller queue, so every rail sees rail 0's
grants and times: the DAG is compiled and timed as it is held, and a run's
result copies each log entry to its twins (the circuit and transfer logs on
first access).  Its start order and logs list twins together, rail by rail,
where a run of every row would interleave them; as multisets they are the
same.  A held DAG's rows never renumber (`EventDag.add` refuses it), so a
result reads the run's DAG itself.  Other traces and hand-built DAGs hold
every row and are timed row by row.

An event starts once its last dependency has finished.  Per-rank join times
(`_joins`: a rank joins at the latest end among the dependencies that
include it or that share no rank with the event) are computed only when
asked for: by a circuit request, the `timeline.csv` writer and an
`EventTiming` lookup.  Each of the three first asks `_one_join` whether
every rank joins at one time, the latest end among the dependencies: it
reads only the dependencies that end then, and every rank joins then
exactly when they reach every rank between them or one of them reaches
none (a rail-0 row, for a row that spans rails, reaching its twins' ranks
on every rail).  Only the other events take `_joins`.  The circuit engine
(`_Engine`) runs from a calendar queue: each time's entries in push order,
under a heap of the distinct times.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .control import Controller, ReconfigLogEntry, profile_iteration
from .errors import ConflictDeadlock, CyclicDependency, NotMember, UnsupportedKind
from .model import Topology
from .workload import (ALLGATHER, ALLREDUCE, COLLECTIVE, REDUCESCATTER, SENDRECV,
                       EventDag, twin)


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

    `circuit_log` and `transfer_log` are built on first access: a run of a
    DAG that holds one rail keeps rail 0's logs and copies them to the
    DAG's other rails then.
    """

    makespan: float
    event_times: Timeline  # event id -> EventTiming
    reconfig_log: list
    overhead_vs_baseline: Optional[float] = None
    _circuits: list = field(default_factory=list, repr=False)  # as the engine logged them
    _transfers: list = field(default_factory=list, repr=False)

    @cached_property
    def circuit_log(self) -> list:
        """(rail, rank, port, group, up, down) of every circuit."""
        rails = self.event_times.dag.rails
        if rails == 1:
            return self._circuits
        return [(l, rank + l, port, twin(gid, l), up, down)
                for _, rank, port, gid, up, down in self._circuits for l in range(rails)]

    @cached_property
    def transfer_log(self) -> list:
        """(event, rank, port, start, end) of every transfer."""
        rails = self.event_times.dag.rails
        if rails == 1:
            return self._transfers
        return [(twin(eid, l), rank + l, port, start, end)
                for eid, rank, port, start, end in self._transfers for l in range(rails)]


def _check_ranks(dag: EventDag, topo: Topology) -> None:
    """Reject an event naming a rank the topology does not have, the first
    in the row-by-row order.  Only the held rows are read when the rail
    count divides the rank count: a twin's ranks are its row's, each + l on
    rail l, and a held rail-0 row's ranks are multiples of the rail count."""
    n, rails = topo.num_ranks, dag.rails
    used = set().union(*dag.ranks)
    top = max(used, default=0) + (rails - 1 if n % rails else 0)
    if used and not (min(used) >= 0 and top < n):
        for i, l, eid in dag.twin_rows():
            ranks = dag.twin_ranks(i, l)
            if not all(0 <= r < n for r in ranks):
                raise NotMember(f"event {eid} names ranks {sorted(ranks)}; "
                                f"the topology has ranks 0-{n - 1}")


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


class _CompiledDag:
    """What simulating one EventDag on one topology needs beyond its columns.

    Events keep their DAG rows, numbered in insertion order; `ids`,
    `ranks`, `deps` and the durations of compute events come from the DAG.
    `dependents` lists are in row order: the engine's push order, and with
    it every controller decision, depends on it.  A dependency naming no
    event raises MissingDependency; a rank outside the topology and a
    collective naming no group raise NotMember.
    """

    __slots__ = ("dag", "ids", "ranks", "deps", "dependents", "indeg",
                 "duration", "group", "circuit")

    def __init__(self, dag: EventDag, topo: Topology, alpha: float):
        members = _check_groups(dag, topo)
        _check_ranks(dag, topo)
        dag.resolve()
        groups, deps = dag.groups, dag.deps
        n = len(deps)
        self.dag, self.ids, self.ranks, self.deps = dag, dag.ids, dag.ranks, deps
        self.dependents = dependents = [[] for _ in range(n)]
        ranks = dag.ranks
        self.indeg = indeg = [0] * n
        self.duration = duration = list(dag.duration)
        self.group = group = [None] * n
        self.circuit = circuit = [False] * n
        kind, dag_group, coll_kind, nbytes = dag.kind, dag.group, dag.coll_kind, dag.bytes
        for i in range(n):
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


def _joins(rs: tuple, rows: Sequence[int], ranks: List[tuple], end: List[float],
           rails: int = 1, spans: Set[int] = frozenset()) -> Dict[int, float]:
    """Per-rank issue time of an event on two or more ranks `rs` whose
    dependencies are `rows`, read from the `ranks` and `end` columns: a rank
    joins at the latest end among the dependencies that include it or that
    share no rank with the event, so its latest join is the latest end among
    all of them.  With `rails` above 1, for an event that spans rails (in
    `spans` of a held DAG), each row not in `spans` stands for its twin on
    every rail, each a dependency of its own."""
    joins = dict.fromkeys(rs, 0.0)
    everyone = 0.0  # the latest end among dependencies sharing no rank
    for d in rows:
        e = end[d]
        dr = ranks[d]
        for twin_ranks in ((dr,) if rails == 1 or d in spans else
                           [[r + l for r in dr] for l in range(rails)]):
            shared = False
            for r in twin_ranks:
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


def _one_join(rs: tuple, rows: Sequence[int], ranks: List[tuple], end: List[float],
              rails: int = 1, spans: Set[int] = frozenset()) -> Optional[float]:
    """The time at which every rank of `rs` joins, as `_joins` gives it for
    the same arguments, when that is one time; else None.

    The latest end among the dependencies bounds every join from above.
    Every rank joins then exactly when the dependencies that end then reach
    every rank between them, or one of them reaches no rank (it then counts
    for every rank); for an event that spans rails, a row not in `spans`
    reaches its twins' ranks on every rail.  With no dependency ending
    after 0.0, every rank joins at 0.0."""
    latest, last = 0.0, ()
    for d in rows:
        e = end[d]
        if e > latest:
            latest, last = e, (d,)
        elif e == latest:
            last += (d,)
    if not latest:
        return 0.0
    left = set(rs)
    for d in last:
        if rails == 1 or d in spans:
            left.difference_update(ranks[d])
        else:  # a rail-0 row's twins: rank r + l on rail l
            for r in ranks[d]:
                left.difference_update(range(r, r + rails))
        if not left:
            return latest
    own = set(rs)
    for d in last:
        for l in (0,) if rails == 1 or d in spans else range(rails):
            if own.isdisjoint([r + l for r in ranks[d]]):
                return latest
    return None


def _longest_path(c: _CompiledDag) -> Tuple[List[float], List[float], List[int]]:
    """Start and end of every event with full connectivity (electrical rails
    or free switching), and the order they were timed in: level by level,
    each level in row order."""
    n = len(c.ids)
    start = [0.0] * n  # the latest end among dependencies timed so far
    end = [0.0] * n
    indeg = list(c.indeg)
    duration, dependents = c.duration, c.dependents
    order: List[int] = []
    ready = [i for i in range(n) if not indeg[i]]
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
    if len(order) != n:
        raise CyclicDependency("event DAG contains a cycle")
    return start, end, order


class Timeline(Mapping):
    """A run's `EventTiming` of every event by id, built on lookup from the
    run's arrays; iterates in the order the events started.

    `start`, `end` and `order` are by row of `dag`, the run's DAG, whose
    rows never renumber.  A row's times are its twins', and iteration lists
    each row's twins together; `starts(i, rail)` gives the per-rank join
    times of row i's twin on `rail`: every rank at `_one_join`'s one time
    when there is one, else `_joins`' times.  A held rail-0 row depends on
    rail-0 rows alone, so its twins' joins are its own, each rank + rail;
    only a row that spans rails reads twins of its dependencies, and only
    through those two functions.  A full-connectivity run shares its
    arrays with its `Prepared` simulation, so they are read, never changed.
    """

    __slots__ = ("dag", "order", "start", "end")

    def __init__(self, dag: EventDag, order: List[int], start: List[float],
                 end: List[float]):
        self.dag, self.order, self.start, self.end = dag, order, start, end

    def starts(self, i: int, rail: int = 0) -> Dict[int, float]:
        dag, end = self.dag, self.end
        ranks, deps = dag.ranks, dag.deps[i]
        rs = ranks[i]
        if len(rs) < 2:  # one rank joins when the event starts
            return {r + rail: self.start[i] for r in rs}
        twins = (dag.rails, dag.spans) if i in dag.spans else ()
        one = _one_join(rs, deps, ranks, end, *twins)
        joins = (_joins(rs, deps, ranks, end, *twins) if one is None
                 else dict.fromkeys(rs, one))
        return {r + rail: t for r, t in joins.items()} if rail else joins

    def __getitem__(self, eid: str) -> EventTiming:
        i, rail = self.dag.locate(eid)
        return EventTiming(self.start[i], self.end[i], self.starts(i, rail))

    def __iter__(self) -> Iterator[str]:
        return (eid for _, _, eid in self.dag.twin_rows(self.order, range(self.dag.rails)))

    def __len__(self) -> int:
        return len(self.dag)


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
    A released event starts when its ring is up, at the wake-up.  `run`
    leaves the times in `start`, `end` and `order`.  A deadlock counts the
    stuck events of every rail a row stands for.
    """

    def __init__(self, c: _CompiledDag, topo: Topology, schedule: Optional[dict]):
        self.c = c
        self.controller = Controller(topo, c.dag.groups)
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
        for gid in sorted(phases[k + 1].groups):  # scale-out groups only
            g = controller.groups[gid]
            if g.size < 2:
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
        ranks, deps, pending = c.ranks, c.deps, controller.pending
        now = 0.0
        batch = [i for i in range(len(indeg)) if not indeg[i]]  # the roots
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
                        rs, ds = ranks[x], deps[x]
                        one = _one_join(rs, ds, ranks, end)
                        joins = (_joins(rs, ds, ranks, end) if one is None
                                 else dict.fromkeys(rs, one))
                        controller.request(gid, joins, speculative=False)
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
            # With no request pending, a scan grants nothing.  A ring is
            # requested only while it is down, so each grant switches a port
            # and the ring comes up a delay later; a wake-up then releases its
            # events (below, in this batch, if the delay rounds away).
            if pending:
                for _, ready in controller.scan(now, self._protected()):
                    self._push(ready, None)
            # Circuits that just came up release their waiting events.
            if waiting:
                for gid in [g for g in waiting if controller.group_up(g, now)]:
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
        if finished != len(indeg):
            # `Prepared` timed the DAG, so it has no cycle: some unfinished
            # events wait on circuits.  Every started event has finished;
            # count what the rest of the rows stand for.
            dag = c.dag
            stuck = len(dag) - sum(1 if i in dag.spans else dag.rails for i in order)
            raise ConflictDeadlock(f"{stuck} events stuck behind the reconfiguration queue")


class Prepared:
    """The delay-independent part of simulating one DAG on one topology.

    Holds the compiled DAG, the full-connectivity start/end/order arrays and
    the baseline makespan; the profiled phase schedule is built on the first
    provisioned run.  Pass it to `simulate` as ``prepared`` to run the same
    DAG at other reconfiguration delays without repeating that work.  A run
    whose DAG, alpha or topology (other than `rail_switch.reconfig_delay`)
    differs is refused.  The compiled DAG reads the DAG's columns in place,
    so the DAG must not change while it is prepared.

    A DAG that holds one rail is compiled and timed as it is held: its
    rows' times stand for their twins' (see the module docstring).
    """

    __slots__ = ("dag", "alpha", "c", "start", "end", "order",
                 "baseline_makespan", "_topo", "_schedule")

    def __init__(self, dag: EventDag, topo: Topology, alpha: float):
        self.dag, self.alpha = dag, alpha
        self._topo = _without_delay(topo)
        self.c = _CompiledDag(dag, topo, alpha)
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
        alone for a DAG that holds one rail)."""
        if self._schedule is None:
            # At full connectivity every rank has joined by the start.
            self._schedule = profile_iteration(self.dag, self.start, self.end)
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
    a rank the topology does not have, a collective naming no group or whose
    ranks differ from its group's members, or a scale-out group not on
    exactly its one declared rail, and CyclicDependency for a dependency
    cycle.
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
        timeline = Timeline(dag, prepared.order, prepared.start, prepared.end)
        return SimResult(makespan=baseline_makespan, event_times=timeline,
                         reconfig_log=[], overhead_vs_baseline=1.0)
    schedule = prepared.schedule() if policy.provisioning else None
    engine = _Engine(prepared.c, topo, schedule)
    engine.run()
    makespan = max(engine.end, default=0.0)
    controller = engine.controller
    controller.close(makespan)
    rails = dag.rails
    log = controller.log if rails == 1 else [
        ReconfigLogEntry(e.time, l, twin(e.group, l), e.speculative, e.delay, e.ports_changed)
        for e in controller.log for l in range(rails)]
    return SimResult(
        makespan=makespan,
        event_times=Timeline(dag, engine.order, engine.start, engine.end),
        reconfig_log=log,
        overhead_vs_baseline=(makespan / baseline_makespan if baseline_makespan else 1.0),
        _circuits=controller.circuit_intervals,
        _transfers=engine.transfer_log,
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
