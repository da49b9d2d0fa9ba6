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

A generated DAG is rail-symmetric, and the generator records that in
`EventDag.rail_symmetric`: rail l runs rail 0's schedule on the twin ranks
(the ranks of the same domains on rail l).  The k-th row whose ranks all sit
on rail l is the twin of rail 0's k-th such row, with the same kind,
duration, bytes and collective kind, and the k-th scale-out group of rail l
(in `groups` order) is the twin of rail 0's k-th.  The only rows whose ranks
span rails are the TP collectives, which take no circuit.  The simulator
times a DAG with the record on rail 0 only and copies the timing to the
other rails.  `EventDag.add` drops the record (so `resolve`, which only
resolves rows `add` stored, never sees it set); the trace parser and
hand-built DAGs never set it.  Changing the columns in place voids it too,
so a DAG whose rows are edited that way must have `rail_symmetric` cleared.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .errors import InvalidParams, MissingDependency
from .model import CommGroup, Topology, make_group

COMPUTE = "compute"
COLLECTIVE = "collective"

ALLREDUCE = "AllReduce"
ALLGATHER = "AllGather"
REDUCESCATTER = "ReduceScatter"
SENDRECV = "SendRecv"
ALLTOALL = "AllToAll"


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
    communication groups.  `deps[i]` is a tuple of the rows event i depends
    on.  `streams[i]` is one stream name when all of the event's ranks issue
    it on the same stream, else a dict of them by rank.  `rail_symmetric`
    is the generator's record that every rail runs rail 0's schedule (see
    the module docstring); `add` drops it.
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
        self.rail_symmetric = False

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def events(self) -> "_Rows":
        """The rows as `Event` records by id, in insertion order; each lookup
        builds a new record, so changing it changes no column."""
        return _Rows(self)

    def add(self, event: Event) -> int:
        """Store `event` as a new row, or in place of the row with its id;
        returns the row.  A dependency on an id not (yet) in the DAG is kept
        by name until `resolve`."""
        row = {name: getattr(event, name) for name in _FIELDS}
        row.update(ranks=tuple(event.rank_set), streams=dict(event.streams), deps=())
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
        self.rail_symmetric = False
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

    def dep_ids(self, i: int) -> tuple:
        """Row i's dependencies by event id, sorted."""
        names = self._unresolved.get(i)
        if names is None:
            ids = self.ids
            names = [ids[d] for d in self.deps[i]]
        return tuple(sorted(names))

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
    """`EventDag.events`: the rows as `Event` records, keyed by id."""

    __slots__ = ("_dag",)

    def __init__(self, dag: EventDag):
        self._dag = dag

    def __getitem__(self, eid: str) -> Event:
        dag = self._dag
        i = dag.index[eid]
        ranks, streams = dag.ranks[i], dag.streams[i]
        return Event(id=eid, kind=dag.kind[i], rank_set=ranks,
                     streams=(dict(streams) if isinstance(streams, dict)
                              else dict.fromkeys(ranks, streams)),
                     group=dag.group[i], coll_kind=dag.coll_kind[i], bytes=dag.bytes[i],
                     deps=dag.dep_ids(i), duration=dag.duration[i],
                     observed_start=dag.observed_start[i], observed_end=dag.observed_end[i])

    def __contains__(self, eid) -> bool:
        return eid in self._dag.index

    def __iter__(self) -> Iterator[str]:
        return iter(self._dag.ids)

    def __len__(self) -> int:
        return len(self._dag.ids)


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
    # Gradient ReduceScatter payload relative to the parameter AllGather
    # payload (reduced in wider precision than the gathered weights).
    grad_bytes_multiplier: float = 4.0
    n_sync_allreduce: int = 2

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
    """Build the event DAG of one training iteration.

    Rows are filled in issue order.  Each event depends on the previous event
    of every (rank, stream) it is issued on; the generator knows which event
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
    rs_bytes = int(round(params.bytes_per_layer_param * params.grad_bytes_multiplier))

    def rank(p, q, l):
        return topo.rank_id(p * dp + q, l)

    dag = EventDag()
    groups = dag.groups

    # Communication groups.
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

    ids, deps = dag.ids, dag.deps
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
            for l in range(G):
                r = rank(p, q, l)
                prep[r] = compute(f"prep.p{p}.q{q}.l{l}", r, (), ct["pre_stage"])
                if p > 0:
                    later.append((prep[r], ("sra", 0, p - 1, q, l)))

    # Per-layer parameter AllGather, one per stage (first forward only).
    ag: Dict[Tuple[int, int], List[int]] = {}
    for p in range(pp):
        for l in range(G):
            gid = f"dp.p{p}.l{l}"
            members = groups[gid].members
            preps = tuple(prep[r] for r in members)
            ag[(p, l)] = chain = []
            for j in range(stage_layers[p]):
                ds = preps + (chain[-1],) if chain else preps
                chain.append(collective(f"ag.p{p}.j{j}.l{l}", members, "dp", ds, gid,
                                        ALLGATHER, params.bytes_per_layer_param))

    # Compute and pipeline traffic per worker, in 1F1B order.
    grads: Dict[Tuple[int, int, int], List[int]] = {}  # last microbatch's b per layer
    rs: Dict[Tuple[int, int], List[int]] = {}
    last_compute = [0] * topo.num_ranks
    for p in range(pp):
        L = stage_layers[p]
        order = one_f_one_b(pp, p, M)
        layer = [str(j) for j in range(L)]
        for q in range(dp):
            tp_gid = f"tp.d{p * dp + q}"
            # A compute id is f"{step}.p{p}.q{q}.m{m}.j{j}.l{l}", built from
            # the step's prefix, `layer[j]` and the rail suffix.
            steps = [(step, m, f"{step}.p{p}.q{q}.m{m}.j") for step, m in order]
            for l in range(G):
                r = rank(p, q, l)
                suffix = f".l{l}"
                ags = ag[(p, l)]
                tail = prep[r]  # the previous event on this rank's compute stream
                dp_tail = ags[-1]
                sra = srg = tar = None
                with_tar = tp >= 2 and l == 0
                for step, m, head in steps:
                    if step == "f":
                        for j in range(L):
                            ds = (ags[j], tail)
                            if j == 0 and m > 0 and p > 0:
                                ds += (rows[("sra", m, p - 1, q, l)],)
                            tail = compute(head + layer[j] + suffix, r, ds, fwd)
                        if tp >= 2 and l > 0:
                            rows[("f", p, q, m, l)] = tail
                        if p < pp - 1:
                            peer = rank(p + 1, q, l)
                            sra = collective(
                                f"sra.m{m}.p{p}.q{q}.l{l}", (r, peer),
                                {r: "pp_send_fwd", peer: "pp_recv_fwd"},
                                (tail,) if sra is None else (tail, sra),
                                f"pp.p{p}-{p + 1}.q{q}.l{l}", SENDRECV, act_bytes)
                            rows[("sra", m, p, q, l)] = sra
                        if with_tar:
                            tar = collective(f"tar.f.p{p}.q{q}.m{m}", groups[tp_gid].members,
                                             "tp", (tail,) if tar is None else (tail, tar),
                                             tp_gid, ALLREDUCE, act_bytes)
                            later += ((tar, ("f", p, q, m, ll)) for ll in range(1, G))
                    else:
                        for j in reversed(range(L)):
                            tail = compute(head + layer[j] + suffix, r, (tail,), bwd)
                            if j == L - 1 and p < pp - 1:
                                later.append((tail, ("srg", m, p + 1, q, l)))
                            if m == M - 1:
                                # Gradient ReduceScatter per layer once partial
                                # gradients are final (last microbatch).
                                grads.setdefault((p, l, j), []).append(tail)
                                if q == dp - 1:
                                    gid = f"dp.p{p}.l{l}"
                                    dp_tail = collective(
                                        f"rs.p{p}.j{j}.l{l}", groups[gid].members, "dp",
                                        tuple(grads[(p, l, j)]) + (dp_tail,), gid,
                                        REDUCESCATTER, rs_bytes)
                                    rs.setdefault((p, l), []).append(dp_tail)
                        if tp >= 2 and l > 0:
                            rows[("b", p, q, m, l)] = tail
                        if p > 0:
                            peer = rank(p - 1, q, l)
                            srg = collective(
                                f"srg.m{m}.p{p}.q{q}.l{l}", (r, peer),
                                {r: "pp_send_grad", peer: "pp_recv_grad"},
                                (tail,) if srg is None else (tail, srg),
                                f"pp.p{p - 1}-{p}.q{q}.l{l}", SENDRECV, act_bytes)
                            rows[("srg", m, p, q, l)] = srg
                        if with_tar:
                            tar = collective(f"tar.b.p{p}.q{q}.m{m}", groups[tp_gid].members,
                                             "tp", (tail,) if tar is None else (tail, tar),
                                             tp_gid, ALLREDUCE, act_bytes)
                            later += ((tar, ("b", p, q, m, ll)) for ll in range(1, G))
                last_compute[r] = tail

    # Optimizer step, then short synchronization AllReduce calls.
    opt = [0] * topo.num_ranks
    for p in range(pp):
        for q in range(dp):
            for l in range(G):
                r = rank(p, q, l)
                opt[r] = compute(f"opt.p{p}.q{q}.l{l}", r,
                                 tuple(rs[(p, l)]) + (last_compute[r],), ct["optim"])
    for l in range(G):
        gid = f"sync.l{l}"
        members = groups[gid].members
        prev = None
        for k in range(params.n_sync_allreduce):
            if k == 0:
                ds = tuple(opt[rank(p, q, l)] for p in range(pp) for q in range(dp))
            else:
                ds = (prev,)
            prev = collective(f"ar.k{k}.l{l}", members, "sync", ds, gid, ALLREDUCE,
                              params.bytes_sync_allreduce)

    for i, key in later:
        deps[i] += (rows[key],)
    dag.index = {eid: i for i, eid in enumerate(ids)}
    dag.observed_start = [None] * len(ids)
    dag.observed_end = [None] * len(ids)
    dag.rail_symmetric = True
    return dag
