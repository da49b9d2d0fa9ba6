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
edges, so a DAG round-trips through the trace format unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import InvalidParams
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


@dataclass
class EventDag:
    events: Dict[str, Event] = field(default_factory=dict)
    groups: Dict[str, CommGroup] = field(default_factory=dict)

    def add(self, event: Event) -> Event:
        self.events[event.id] = event
        return event

    def __len__(self) -> int:
        return len(self.events)


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


class _Builder:
    """Accumulates events while tracking per-(rank, stream) issue order."""

    def __init__(self, dag: EventDag):
        self.dag = dag
        self.stream_tail: Dict[Tuple[int, str], str] = {}

    def add(self, id, kind, ranks, stream, deps, **kw) -> Event:
        """`stream` names every rank's issue stream, or is a dict of them by
        rank, in `ranks` order."""
        streams = stream if isinstance(stream, dict) else dict.fromkeys(ranks, stream)
        deps = set(deps)
        tails = self.stream_tail
        for key in streams.items():
            tail = tails.get(key)
            if tail:
                deps.add(tail)
            tails[key] = id
        ev = Event(id=id, kind=kind, rank_set=tuple(ranks), streams=streams,
                   deps=tuple(sorted(deps)), **kw)
        return self.dag.add(ev)


def generate_3d_schedule(params: WorkloadParams, topo: Topology) -> EventDag:
    """Build the event DAG of one training iteration."""
    params.validate(topo)
    pp, dp, tp = params.pp, params.dp, params.tp
    G = topo.gpus_per_domain
    # Balanced layer split; early stages absorb the remainder.
    base, extra = divmod(params.n_layer, pp)
    stage_layers = [base + (1 if p < extra else 0) for p in range(pp)]
    M = params.n_microbatch
    ct = params.compute_times
    rs_bytes = int(round(params.bytes_per_layer_param * params.grad_bytes_multiplier))

    def rank(p, q, l):
        return topo.rank_id(p * dp + q, l)

    dag = EventDag()
    b = _Builder(dag)

    # Communication groups.
    for p in range(pp):
        for l in range(G):
            gid = f"dp.p{p}.l{l}"
            dag.groups[gid] = make_group(gid, "DP", sorted(rank(p, q, l) for q in range(dp)), topo)
    for p in range(pp - 1):
        for q in range(dp):
            for l in range(G):
                gid = f"pp.p{p}-{p + 1}.q{q}.l{l}"
                dag.groups[gid] = make_group(gid, "PP", sorted((rank(p, q, l), rank(p + 1, q, l))), topo)
    for l in range(G):
        gid = f"sync.l{l}"
        members = sorted(rank(p, q, l) for p in range(pp) for q in range(dp))
        dag.groups[gid] = make_group(gid, "SYNC", members, topo)
    if tp >= 2:
        for p in range(pp):
            for q in range(dp):
                gid = f"tp.d{p * dp + q}"
                dag.groups[gid] = make_group(gid, "TP", sorted(rank(p, q, l) for l in range(G)), topo)

    # Host-side prep before a stage's first forward; gates the lazy first
    # AllGather of stages > 0 on the inbound activation.
    for p in range(pp):
        for q in range(dp):
            for l in range(G):
                deps = [f"sra.m0.p{p - 1}.q{q}.l{l}"] if p > 0 else []
                b.add(f"prep.p{p}.q{q}.l{l}", COMPUTE, (rank(p, q, l),), "compute",
                      deps, duration=ct["pre_stage"])

    # Per-layer parameter AllGather, one per stage (first forward only).
    for p in range(pp):
        for l in range(G):
            for j in range(stage_layers[p]):
                deps = [f"prep.p{p}.q{q}.l{l}" for q in range(dp)]
                b.add(f"ag.p{p}.j{j}.l{l}", COLLECTIVE,
                      tuple(sorted(rank(p, q, l) for q in range(dp))), "dp",
                      deps, group=f"dp.p{p}.l{l}", coll_kind=ALLGATHER,
                      bytes=params.bytes_per_layer_param)

    # Compute and pipeline traffic per worker, in 1F1B order.
    for p in range(pp):
        for q in range(dp):
            for l in range(G):
                r = rank(p, q, l)
                L = stage_layers[p]
                for step, m in one_f_one_b(pp, p, M):
                    if step == "f":
                        for j in range(L):
                            deps = [f"ag.p{p}.j{j}.l{l}"]
                            if j == 0 and m > 0 and p > 0:
                                deps.append(f"sra.m{m}.p{p - 1}.q{q}.l{l}")
                            b.add(f"f.p{p}.q{q}.m{m}.j{j}.l{l}", COMPUTE, (r,),
                                  "compute", deps, duration=ct["fwd_layer"])
                        if p < pp - 1:
                            peer = rank(p + 1, q, l)
                            b.add(f"sra.m{m}.p{p}.q{q}.l{l}", COLLECTIVE, (r, peer),
                                  {r: "pp_send_fwd", peer: "pp_recv_fwd"},
                                  [f"f.p{p}.q{q}.m{m}.j{L - 1}.l{l}"],
                                  group=f"pp.p{p}-{p + 1}.q{q}.l{l}", coll_kind=SENDRECV,
                                  bytes=params.bytes_activation)
                        if tp >= 2 and l == 0:
                            b.add(f"tar.f.p{p}.q{q}.m{m}", COLLECTIVE,
                                  dag.groups[f"tp.d{p * dp + q}"].members, "tp",
                                  [f"f.p{p}.q{q}.m{m}.j{L - 1}.l{ll}" for ll in range(G)],
                                  group=f"tp.d{p * dp + q}", coll_kind=ALLREDUCE,
                                  bytes=params.bytes_activation)
                    else:
                        for j in reversed(range(L)):
                            deps = []
                            if j == L - 1 and p < pp - 1:
                                deps.append(f"srg.m{m}.p{p + 1}.q{q}.l{l}")
                            b.add(f"b.p{p}.q{q}.m{m}.j{j}.l{l}", COMPUTE, (r,),
                                  "compute", deps, duration=ct["bwd_layer"])
                            if m == M - 1:
                                # Gradient ReduceScatter per layer once partial
                                # gradients are final (last microbatch).
                                if q == dp - 1:
                                    rs_deps = [f"b.p{p}.q{qq}.m{m}.j{j}.l{l}" for qq in range(dp)]
                                    b.add(f"rs.p{p}.j{j}.l{l}", COLLECTIVE,
                                          tuple(sorted(rank(p, qq, l) for qq in range(dp))),
                                          "dp", rs_deps, group=f"dp.p{p}.l{l}",
                                          coll_kind=REDUCESCATTER, bytes=rs_bytes)
                        if p > 0:
                            peer = rank(p - 1, q, l)
                            b.add(f"srg.m{m}.p{p}.q{q}.l{l}", COLLECTIVE, (r, peer),
                                  {r: "pp_send_grad", peer: "pp_recv_grad"},
                                  [f"b.p{p}.q{q}.m{m}.j0.l{l}"],
                                  group=f"pp.p{p - 1}-{p}.q{q}.l{l}", coll_kind=SENDRECV,
                                  bytes=params.bytes_activation)
                        if tp >= 2 and l == 0:
                            b.add(f"tar.b.p{p}.q{q}.m{m}", COLLECTIVE,
                                  dag.groups[f"tp.d{p * dp + q}"].members, "tp",
                                  [f"b.p{p}.q{q}.m{m}.j0.l{ll}" for ll in range(G)],
                                  group=f"tp.d{p * dp + q}", coll_kind=ALLREDUCE,
                                  bytes=params.bytes_activation)

    # Optimizer step, then short synchronization AllReduce calls.
    for p in range(pp):
        for q in range(dp):
            for l in range(G):
                deps = [f"rs.p{p}.j{j}.l{l}" for j in range(stage_layers[p])]
                b.add(f"opt.p{p}.q{q}.l{l}", COMPUTE, (rank(p, q, l),), "compute",
                      deps, duration=ct["optim"])
    for l in range(G):
        members = dag.groups[f"sync.l{l}"].members
        for k in range(params.n_sync_allreduce):
            deps = [f"opt.p{p}.q{q}.l{l}" for p in range(pp) for q in range(dp)] if k == 0 else []
            b.add(f"ar.k{k}.l{l}", COLLECTIVE, members, "sync", deps,
                  group=f"sync.l{l}", coll_kind=ALLREDUCE, bytes=params.bytes_sync_allreduce)

    return dag

