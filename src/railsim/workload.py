"""Per-iteration event DAG generation for hybrid-parallel training.

The generator emits the communication skeleton of one training iteration with
TP inside the scale-up domain, FSDP across domains, and pipeline parallelism
under a one-forward-one-backward (1F1B) microbatch schedule:

  * per-layer parameter AllGather overlapped with the first forward pass,
  * activation/gradient SendRecv between adjacent pipeline stages,
  * per-layer gradient ReduceScatter during the last microbatch's backward,
  * a trailing run of short synchronization AllReduce calls,
  * TP collectives that consume only scale-up bandwidth.

Events carry explicit dependency edges, including per-rank stream-order
edges, so the trace format keeps a DAG's events, groups and edges.  It does
not keep every duration bit for bit: the parser takes a compute event's
duration as its observed end minus its observed start, which can differ
from the generated duration in the last bits (1.3055989999999997 against
1.305599), so `sim` on a trace that `gen` wrote can differ from `sim` on
the generated DAG in the last digits of its times.

An `EventDag` is one set of parallel columns, a row per event in insertion
order, with dependencies as tuples of rows.  The generator, the trace parser,
the simulator and the writers all work on the columns; `Event` is the row
record that hand-built DAGs pass to `EventDag.add` and that `dag.events`
returns.

A generated DAG holds one rail, and so does a rail-symmetric trace that
`save_trace` wrote; the parser reads any other trace row by row, and so it
does one that fails a check of the held form (see the `trace` module).
Every rail runs rail 0's schedule on the twin ranks (the ranks of the same
domains on rail l), and only the TP AllReduces, which take no circuit, span
rails.  So `generate_3d_schedule` emits rail 0's rows and the TP rows
(`spans`), and sets `EventDag.rails` to the rail count: each other row stands for its twin
on every rail, and its ranks are rail 0's, multiples of the rail count.  A
twin is arithmetic, and the `twin*` functions and methods derive it: on
rail l, rank r becomes r + l, the `.l0` that ends rail 0's event and group
ids becomes `.l{l}`, and a dependency on a rail-0 row becomes one on that
row's twin.  For speed, `cli._write_sim_outputs`, the twin templates of
`trace` and `SimResult`'s log copies build twin ids and ranks themselves.  A TP
row stands for itself and depends on every rail's twin of each rail-0 row
it names, so a twin's per-rank joins are its row's with each rank + l.  `EventDag.blocks` records how the row-by-row DAG
interleaves the rails (each block repeated rail by rail, the TP rows on rail
0 only), so `twin_rows` lists every event in that order and `expanded`
rebuilds that DAG exactly.  Every held id but a TP row's ends in `.l0`, and
no other held id starts with one less its final `0`, so a row's twins' ids
sort together, in the text order of their rails (`.l10` before `.l2`).  The
simulator, the profiler and the log copies read the held rows directly.
A held DAG's rows never renumber: `EventDag.add` refuses it, so edit
`dag.expanded()` instead.  Other traces and hand-built DAGs hold every
row, so they take the row-by-row path.  Changing a column in place of a
held DAG changes every rail.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import InvalidParams, MissingDependency
from .model import CommGroup, Topology, make_group

COMPUTE = "compute"
COLLECTIVE = "collective"

ALLREDUCE = "AllReduce"
ALLGATHER = "AllGather"
REDUCESCATTER = "ReduceScatter"
SENDRECV = "SendRecv"

# Gradient ReduceScatter payload relative to the parameter AllGather payload
# (reduced in wider precision than the gathered weights).
GRAD_BYTES_MULTIPLIER = 4.0
# Short synchronization AllReduce calls that close an iteration.
N_SYNC_ALLREDUCE = 2


def twin(name: str, rail: int) -> str:
    """A rail-0 event or group id's twin on `rail`: its final `0` replaced."""
    return name[:-1] + str(rail) if rail else name


@dataclass(slots=True)
class Event:
    """One row of an `EventDag`, with its dependencies named by event id."""

    id: str
    kind: str  # COMPUTE or COLLECTIVE
    rank_set: tuple  # global rank ids involved
    streams: Dict[int, str]  # rank -> logical issue stream
    group: Optional[str] = None  # CommGroup id (collectives only)
    coll_kind: Optional[str] = None
    bytes: int = 0  # payload per participating rank
    deps: tuple = ()
    duration: float = 0.0  # seconds (compute events only)
    observed_start: Optional[float] = None
    observed_end: Optional[float] = None


# Columns that hold the `Event` field of the same name as it is.
_FIELDS = ("kind", "group", "coll_kind", "bytes", "duration", "observed_start",
           "observed_end")


class EventDag:
    """An event DAG as parallel columns, one row per event in insertion order.

    `ids`, `kind`, `ranks`, `streams`, `group`, `coll_kind`, `bytes`,
    `duration`, `observed_start`, `observed_end` and `deps` are lists indexed
    by row; `index` maps an event id to its row and `groups` holds the
    communication groups of every rail.  `deps[i]` is a tuple of the rows
    event i depends on.  `streams[i]` is one stream name when all of the
    event's ranks issue it on the same stream, else a dict of them by rank.
    With `rails` above 1 the DAG holds one rail (see the module docstring):
    each row not in `spans` stands for its twin on every rail, and `blocks`
    records how the rails interleave.  `len`, `events`, `locate` and
    `twin_rows` cover every rail's events without expanding; `expanded`
    builds the row-by-row DAG, the one that `add` can change.
    """

    def __init__(self) -> None:
        self.ids: List[str] = []
        self.index: Dict[str, int] = {}
        self.kind: List[str] = []
        self.ranks: List[tuple] = []
        self.streams: List[Union[str, Dict[int, str]]] = []
        self.group: List[Optional[str]] = []
        self.coll_kind: List[Optional[str]] = []
        self.bytes: List[int] = []
        self.duration: List[float] = []
        self.observed_start: List[Optional[float]] = []
        self.observed_end: List[Optional[float]] = []
        self.deps: List[Tuple[int, ...]] = []
        self.groups: Dict[str, CommGroup] = {}
        # Rows added with a dependency on an id not in the DAG then: their
        # dependency names, until `resolve` turns them into rows.
        self._unresolved: Dict[int, tuple] = {}
        self._by_rail: Optional[Dict[int, List[int]]] = None
        self.rails = 1  # the rails each row not in `spans` stands for
        self.spans: Set[int] = set()  # rows whose ranks span rails
        self.blocks: List[int] = []  # the end of each block (see `twin_rows`)

    def __len__(self) -> int:
        n = len(self.ids)
        return n + (self.rails - 1) * (n - len(self.spans))

    @property
    def events(self) -> "_Rows":
        """Every rail's events as `Event` records by id, in the row-by-row
        order; each lookup builds a new record, so changing it changes no
        column."""
        return _Rows(self)

    def add(self, event: Event) -> int:
        """Store `event` as a new row, or in place of the row with its id;
        returns the row.  A dependency on an id not (yet) in the DAG is kept
        by name until `resolve`.  A DAG that holds one rail raises
        ValueError, so its rows never renumber: add to `dag.expanded()`.
        An event that lists a rank twice raises InvalidParams, as a group
        with a repeated member does, and changes no row."""
        if self.rails > 1:
            raise ValueError(f"this DAG holds one of its {self.rails} rails; "
                             "add to dag.expanded(), which holds every row")
        ranks = tuple(event.rank_set)
        if len(set(ranks)) != len(ranks):
            twice = next(r for k, r in enumerate(ranks) if r in ranks[:k])
            raise InvalidParams(f"event {event.id} lists rank {twice} twice")
        row = {name: getattr(event, name) for name in _FIELDS}
        row.update(ranks=ranks, streams=dict(event.streams), deps=())
        i = self.index.get(event.id)
        if i is None:
            i = self.index[event.id] = len(self.ids)
            self.ids.append(event.id)
            for name, value in row.items():
                getattr(self, name).append(value)
        else:
            for name, value in row.items():
                getattr(self, name)[i] = value
        index = self.index
        if all(d in index for d in event.deps):
            self.deps[i] = tuple(index[d] for d in event.deps)
            self._unresolved.pop(i, None)
        else:
            self._unresolved[i] = tuple(event.deps)
        self._by_rail = None
        return i

    def resolve(self) -> None:
        """Turn the dependency names `add` kept into rows.

        Raises MissingDependency for a name that is still no event."""
        index = self.index
        for i in sorted(self._unresolved):
            for d in self._unresolved[i]:
                if d not in index:
                    raise MissingDependency(f"{self.ids[i]} depends on unknown event {d}")
            self.deps[i] = tuple(index[d] for d in self._unresolved[i])
        self._unresolved.clear()

    def twin_ranks(self, i: int, rail: int) -> tuple:
        """The ranks of row i's twin on `rail`."""
        return tuple(r + rail for r in self.ranks[i]) if rail else self.ranks[i]

    def twin_streams(self, i: int, rail: int) -> Union[str, Dict[int, str]]:
        """The streams of row i's twin on `rail`, as `streams` holds them; a
        dict is a new one."""
        s = self.streams[i]
        return {r + rail: name for r, name in s.items()} if isinstance(s, dict) else s

    def twin_deps(self, i: int, rail: int) -> List[Tuple[int, int]]:
        """The dependencies of row i's twin on `rail`, as (row, rail) pairs."""
        spans, ds = self.spans, self.deps[i]
        if i not in spans:
            return [(d, 0 if d in spans else rail) for d in ds]
        return [(d, 0) for d in ds] + [(d, l) for l in range(1, self.rails)
                                       for d in ds if d not in spans]

    def dep_ids(self, i: int, rail: int = 0) -> tuple:
        """The dependencies of row i's twin on `rail` by event id, sorted."""
        names = self._unresolved.get(i)
        if names is None:
            ids = self.ids
            if rail or i in self.spans:
                names = [twin(ids[d], l) for d, l in self.twin_deps(i, rail)]
            else:
                names = [ids[d] for d in self.deps[i]]
        return tuple(sorted(names))

    def locate(self, eid: str) -> Tuple[int, int]:
        """The row of event `eid`, or of its rail-0 twin, and its rail;
        KeyError when no event has that id."""
        i = self.index.get(eid)
        if i is not None:
            return i, 0
        head, sep, tail = eid.rpartition(".l")
        rail = int(tail) if sep and tail.isdecimal() and str(int(tail)) == tail else 0
        i = self.index.get(head + ".l0") if 0 < rail < self.rails else None
        if i is None or i in self.spans:
            raise KeyError(eid)
        return i, rail

    def passes(self) -> Iterator[Tuple[Sequence[int], int]]:
        """The row-by-row order as (rows, rail) passes: each block's rows on
        rail 0, then its rows not in `spans` on each other rail in turn."""
        a = 0
        for b in self.blocks if self.rails > 1 else [len(self.ids)]:
            yield range(a, b), 0
            if self.rails > 1:
                kept = [i for i in range(a, b) if i not in self.spans]
                for l in range(1, self.rails):
                    yield kept, l
            a = b

    def twin_rows(self, rows: Optional[Iterable[int]] = None,
                  rails: Sequence[int] = ()) -> Iterator[Tuple[int, int, str]]:
        """Events as (row, rail, event id): row i's twin on the rail, whose
        ranks are row i's, each + rail.  With `rows`, those rows' twins on
        `rails` in turn (a row in `spans` on rail 0 alone); else every event
        in the row-by-row order, each block of rows on rail 0, then without
        `spans` on each rail."""
        if rows is None:
            for part, l in self.passes():
                yield from self.twin_rows(part, (l,))
            return
        ids, spans = self.ids, self.spans
        tails = [(l, str(l)) for l in rails]
        for i in rows:
            eid = ids[i]
            if i in spans:
                yield i, 0, eid
            else:
                head = eid[:-1]
                for l, tail in tails:
                    yield i, l, head + tail if l else eid

    def expanded(self) -> "EventDag":
        """The row-by-row DAG: every event a row of its own, in `twin_rows`
        order, sharing `groups`.  A DAG that holds every row is returned as
        it is."""
        if self.rails == 1:
            return self
        rows = list(self.twin_rows())
        at = {(i, l): k for k, (i, l, _) in enumerate(rows)}
        full = EventDag()
        full.groups, full.ids = self.groups, [eid for _, _, eid in rows]
        full.index = {eid: k for k, eid in enumerate(full.ids)}
        for name in ("kind", "coll_kind", "bytes", "duration", "observed_start",
                     "observed_end"):
            column = getattr(self, name)
            setattr(full, name, [column[i] for i, *_ in rows])
        for i, l, _ in rows:
            group = self.group[i]
            full.ranks.append(self.twin_ranks(i, l))
            full.streams.append(self.twin_streams(i, l))
            full.group.append(group and twin(group, l))
            full.deps.append(tuple(at[d] for d in self.twin_deps(i, l)))
        return full

    def scaleout_by_rail(self) -> Dict[int, List[int]]:
        """Rows of the collectives of scale-out groups, by each rail their
        group touches, in row order.  Computed on the first call after the
        last `add`; a collective naming no group is left out."""
        if self._by_rail is None:
            by_rail: Dict[int, List[int]] = {}
            groups, kind = self.groups, self.kind
            for i, gid in enumerate(self.group):
                g = groups.get(gid) if kind[i] == COLLECTIVE else None
                if g is not None and g.is_scaleout:
                    for rail in g.rails_touched:
                        by_rail.setdefault(rail, []).append(i)
            self._by_rail = by_rail
        return self._by_rail


class _Rows(Mapping):
    """`EventDag.events`: every rail's events as `Event` records, keyed by id."""

    __slots__ = ("_dag",)

    def __init__(self, dag: EventDag):
        self._dag = dag

    def __getitem__(self, eid: str) -> Event:
        dag = self._dag
        i, rail = dag.locate(eid)
        ranks, streams, group = dag.twin_ranks(i, rail), dag.twin_streams(i, rail), dag.group[i]
        return Event(id=eid, kind=dag.kind[i], rank_set=ranks,
                     streams=(streams if isinstance(streams, dict)
                              else dict.fromkeys(ranks, streams)),
                     group=group and twin(group, rail), coll_kind=dag.coll_kind[i],
                     bytes=dag.bytes[i], deps=dag.dep_ids(i, rail), duration=dag.duration[i],
                     observed_start=dag.observed_start[i], observed_end=dag.observed_end[i])

    def __iter__(self) -> Iterator[str]:
        return (eid for _, _, eid in self._dag.twin_rows())

    def __len__(self) -> int:
        return len(self._dag)


@dataclass(frozen=True)
class WorkloadParams:
    pp: int
    dp: int
    tp: int
    n_layer: int
    n_microbatch: int
    bytes_per_layer_param: int
    bytes_activation: int
    bytes_sync_allreduce: int
    compute_times: dict  # keys: fwd_layer, bwd_layer, optim, pre_stage

    def validate(self, topo: Topology) -> None:
        if min(self.pp, self.dp, self.tp) < 1:
            raise InvalidParams("pp, dp, tp must all be >= 1")
        if self.pp * self.dp * self.tp != topo.num_ranks:
            raise InvalidParams(
                f"pp*dp*tp = {self.pp * self.dp * self.tp} does not match rank count {topo.num_ranks}"
            )
        if self.tp != topo.gpus_per_domain:
            raise InvalidParams(
                f"TP degree {self.tp} must equal the scale-up size {topo.gpus_per_domain} "
                "(TP is confined to one domain, one shard per rail)"
            )
        if self.n_layer < self.pp:
            raise InvalidParams(f"n_layer {self.n_layer} < pp {self.pp}, "
                                "every stage needs at least one layer")
        if self.n_microbatch < 1:
            raise InvalidParams("need at least one microbatch")
        for key in ("fwd_layer", "bwd_layer", "optim", "pre_stage"):
            if key not in self.compute_times:
                raise InvalidParams(f"compute_times missing {key!r}")
            if not 0.0 <= self.compute_times[key] < math.inf:
                raise InvalidParams(f"compute time {key} must be finite and >= 0, "
                                    f"got {self.compute_times[key]}")
        if min(self.bytes_per_layer_param, self.bytes_activation,
               self.bytes_sync_allreduce) < 0:
            raise InvalidParams("byte sizes must be >= 0")


def one_f_one_b(pp: int, stage: int, n_microbatch: int) -> List[Tuple[str, int]]:
    """1F1B microbatch order for one stage: ('f'|'b', microbatch) pairs."""
    warmup = min(n_microbatch, pp - 1 - stage)
    order = [("f", i) for i in range(warmup)]
    nf, nb = warmup, 0
    while nb < n_microbatch:
        if nf < n_microbatch:
            order.append(("f", nf))
            nf += 1
        order.append(("b", nb))
        nb += 1
    return order


def generate_3d_schedule(params: WorkloadParams, topo: Topology) -> EventDag:
    """Build the event DAG of one training iteration, one rail of it held.

    The rows are rail 0's events and the TP AllReduces in issue order (see
    the module docstring).  Each event depends on the previous event of
    every (rank, stream) it is issued on; the generator knows which event
    that is, because each stream carries one kind of traffic: a rank's
    compute, the AllGathers and ReduceScatters of its DP group, the SendRecvs
    of one pipeline pair and direction, the TP AllReduces of its domain, or
    the sync AllReduces of its rail.  A dependency on an event added further
    on is resolved once every row exists.
    """
    params.validate(topo)
    pp, dp, tp = params.pp, params.dp, params.tp
    G = topo.gpus_per_domain
    # Balanced layer split; early stages absorb the remainder.
    base, extra = divmod(params.n_layer, pp)
    stage_layers = [base + (1 if p < extra else 0) for p in range(pp)]
    M = params.n_microbatch
    ct = params.compute_times
    fwd, bwd = ct["fwd_layer"], ct["bwd_layer"]
    act_bytes = params.bytes_activation
    rs_bytes = int(round(params.bytes_per_layer_param * GRAD_BYTES_MULTIPLIER))

    def rank(p, q, l=0):
        return topo.rank_id(p * dp + q, l)

    dag = EventDag()
    groups = dag.groups

    # Communication groups, every rail's.
    for p in range(pp):
        for l in range(G):
            gid = f"dp.p{p}.l{l}"
            groups[gid] = make_group(gid, "DP", sorted(rank(p, q, l) for q in range(dp)), topo)
    for p in range(pp - 1):
        for q in range(dp):
            for l in range(G):
                gid = f"pp.p{p}-{p + 1}.q{q}.l{l}"
                groups[gid] = make_group(gid, "PP", sorted((rank(p, q, l), rank(p + 1, q, l))), topo)
    for l in range(G):
        gid = f"sync.l{l}"
        members = sorted(rank(p, q, l) for p in range(pp) for q in range(dp))
        groups[gid] = make_group(gid, "SYNC", members, topo)
    if tp >= 2:
        for p in range(pp):
            for q in range(dp):
                gid = f"tp.d{p * dp + q}"
                groups[gid] = make_group(gid, "TP", sorted(rank(p, q, l) for l in range(G)), topo)

    ids, deps, blocks = dag.ids, dag.deps, dag.blocks
    kind, ranks, streams = dag.kind, dag.ranks, dag.streams
    group, coll_kind, nbytes, duration = dag.group, dag.coll_kind, dag.bytes, dag.duration
    solo = [(r,) for r in range(topo.num_ranks)]

    def compute(eid: str, r: int, ds: tuple, seconds: float) -> int:
        ids.append(eid)
        kind.append(COMPUTE)
        ranks.append(solo[r])
        streams.append("compute")
        group.append(None)
        coll_kind.append(None)
        nbytes.append(0)
        duration.append(seconds)
        deps.append(ds)
        return len(ids) - 1

    def collective(eid: str, rs: tuple, stream, ds: tuple, gid: str, ck: str,
                   size: int) -> int:
        ids.append(eid)
        kind.append(COLLECTIVE)
        ranks.append(rs)
        streams.append(stream)
        group.append(gid)
        coll_kind.append(ck)
        nbytes.append(size)
        duration.append(0.0)
        deps.append(ds)
        return len(ids) - 1

    # Dependencies on events added further on: (row, key of the event), and
    # the rows of the events such keys name.
    later: List[Tuple[int, tuple]] = []
    rows: Dict[tuple, int] = {}

    # Host-side prep before a stage's first forward; gates the lazy first
    # AllGather of stages > 0 on the inbound activation.
    prep = [0] * topo.num_ranks
    for p in range(pp):
        for q in range(dp):
            r = rank(p, q)
            prep[r] = compute(f"prep.p{p}.q{q}.l0", r, (), ct["pre_stage"])
            blocks.append(len(ids))
            if p > 0:
                later.append((prep[r], ("sra", 0, p - 1, q)))

    # Per-layer parameter AllGather, one per stage (first forward only).
    ag: List[List[int]] = []
    for p in range(pp):
        gid = f"dp.p{p}.l0"
        members = groups[gid].members
        preps = tuple(prep[r] for r in members)
        chain: List[int] = []
        ag.append(chain)
        for j in range(stage_layers[p]):
            ds = preps + (chain[-1],) if chain else preps
            chain.append(collective(f"ag.p{p}.j{j}.l0", members, "dp", ds, gid,
                                    ALLGATHER, params.bytes_per_layer_param))
        blocks.append(len(ids))

    # Compute and pipeline traffic per worker, in 1F1B order.
    grads: Dict[Tuple[int, int], List[int]] = {}  # last microbatch's b per layer
    rs: Dict[int, List[int]] = {}
    last_compute = [0] * topo.num_ranks
    for p in range(pp):
        L = stage_layers[p]
        order = one_f_one_b(pp, p, M)
        layer = [f"{j}.l0" for j in range(L)]
        gid = f"dp.p{p}.l0"
        for q in range(dp):
            tp_gid = f"tp.d{p * dp + q}"
            r = rank(p, q)
            ags = ag[p]
            tail = prep[r]  # the previous event on this rank's compute stream
            dp_tail = ags[-1]
            sra = srg = tar = None
            for step, m in order:
                # A compute id is f"{step}.p{p}.q{q}.m{m}.j{j}.l0".
                head = f"{step}.p{p}.q{q}.m{m}.j"
                if step == "f":
                    for j in range(L):
                        ds = (ags[j], tail)
                        if j == 0 and m > 0 and p > 0:
                            ds += (rows[("sra", m, p - 1, q)],)
                        tail = compute(head + layer[j], r, ds, fwd)
                    if p < pp - 1:
                        peer = rank(p + 1, q)
                        sra = collective(
                            f"sra.m{m}.p{p}.q{q}.l0", (r, peer),
                            {r: "pp_send_fwd", peer: "pp_recv_fwd"},
                            (tail,) if sra is None else (tail, sra),
                            f"pp.p{p}-{p + 1}.q{q}.l0", SENDRECV, act_bytes)
                        rows[("sra", m, p, q)] = sra
                else:
                    for j in reversed(range(L)):
                        tail = compute(head + layer[j], r, (tail,), bwd)
                        if j == L - 1 and p < pp - 1:
                            later.append((tail, ("srg", m, p + 1, q)))
                        if m == M - 1:
                            # Gradient ReduceScatter per layer once partial
                            # gradients are final (last microbatch).
                            grads.setdefault((p, j), []).append(tail)
                            if q == dp - 1:
                                dp_tail = collective(
                                    f"rs.p{p}.j{j}.l0", groups[gid].members, "dp",
                                    tuple(grads[(p, j)]) + (dp_tail,), gid,
                                    REDUCESCATTER, rs_bytes)
                                rs.setdefault(p, []).append(dp_tail)
                    if p > 0:
                        peer = rank(p - 1, q)
                        srg = collective(
                            f"srg.m{m}.p{p}.q{q}.l0", (r, peer),
                            {r: "pp_send_grad", peer: "pp_recv_grad"},
                            (tail,) if srg is None else (tail, srg),
                            f"pp.p{p - 1}-{p}.q{q}.l0", SENDRECV, act_bytes)
                        rows[("srg", m, p, q)] = srg
                if tp >= 2:
                    tar = collective(f"tar.{step}.p{p}.q{q}.m{m}", groups[tp_gid].members,
                                     "tp", (tail,) if tar is None else (tail, tar),
                                     tp_gid, ALLREDUCE, act_bytes)
                    dag.spans.add(tar)
            last_compute[r] = tail
            blocks.append(len(ids))

    # Optimizer step, then short synchronization AllReduce calls.
    opt = [0] * topo.num_ranks
    for p in range(pp):
        for q in range(dp):
            r = rank(p, q)
            opt[r] = compute(f"opt.p{p}.q{q}.l0", r, tuple(rs[p]) + (last_compute[r],),
                             ct["optim"])
            blocks.append(len(ids))
    members = groups["sync.l0"].members
    prev = None
    for k in range(N_SYNC_ALLREDUCE):
        ds = tuple(opt[r] for r in members) if k == 0 else (prev,)
        prev = collective(f"ar.k{k}.l0", members, "sync", ds, "sync.l0", ALLREDUCE,
                          params.bytes_sync_allreduce)
    blocks.append(len(ids))

    for i, key in later:
        deps[i] += (rows[key],)
    dag.index = {eid: i for i, eid in enumerate(ids)}
    dag.observed_start = [None] * len(ids)
    dag.observed_end = [None] * len(ids)
    dag.rails = G
    return dag
