"""Trace file format: one record per (rank, event), plus group declarations.

Layout (UTF-8, comma-separated, header line required):

    event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,observed_start_s,observed_end_s

Lines starting with ``#group,`` declare communication groups:

    #group,<id>,<axis>,<member;member;...>,<rail;rail;...>

Dependency edges are reconstructed from the explicit ``dep_ids`` column plus
per-(rank, stream) record order: a record depends on the previous record of
the same rank and stream.  The parser fills an `EventDag`'s columns directly
and turns each dependency id into a row as its record is read; only ids not
read yet are kept by name, until the closing pass resolves them.  Repeated
strings (kind, stream, coll_kind, group_id) and one-rank tuples are shared
between rows.

The parser is the gate for traces: besides malformed records it rejects a
group declared twice, a record that ends before it starts, a later record of
an event whose kind, coll_kind or group_id differs from the first, observed
starts that go back in time along a (rank, stream), a dependency naming no
event and a dependency cycle.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

from .errors import CyclicDependency, MissingDependency, ParseError
from .model import CommGroup
from .workload import COLLECTIVE, COMPUTE, EventDag

HEADER = "event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,observed_start_s,observed_end_s"


def _fmt_time(t) -> str:
    return "" if t is None else repr(float(t))


def save_trace(dag: EventDag, path: str) -> None:
    lines = [HEADER + "\n"]
    for gid in sorted(dag.groups):
        g = dag.groups[gid]
        members = ";".join(str(m) for m in g.members)
        rails = ";".join(str(r) for r in sorted(g.rails_touched))
        lines.append(f"#group,{gid},{g.axis},{members},{rails}\n")
    for i, eid in enumerate(dag.ids):
        rest = (f"{dag.kind[i]},{dag.coll_kind[i] or ''},{dag.group[i] or ''},"
                f"{dag.bytes[i]},{';'.join(dag.dep_ids(i))},"
                f"{_fmt_time(dag.observed_start[i])},{_fmt_time(dag.observed_end[i])}\n")
        streams = dag.streams[i]
        for rank in sorted(dag.ranks[i]):
            stream = streams.get(rank, "") if isinstance(streams, dict) else streams
            lines.append(f"{eid},{rank},{stream},{rest}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(lines))


def load_trace(path: str) -> EventDag:
    """Parse a trace file into an EventDag.

    Raises ParseError with a line number on malformed or disagreeing records,
    a group declared twice, a record that ends before it starts and observed
    starts out of stream order, MissingDependency when a dependency names no
    event, and CyclicDependency when the reconstructed edges contain a cycle.
    """
    with open(path, "r", encoding="utf-8") as f:
        return _parse(f)


def loads_trace(text: str) -> EventDag:
    return _parse(io.StringIO(text))


def _parse(f) -> EventDag:
    dag = EventDag()
    ids, index = dag.ids, dag.index
    kinds, ranks, streams, groups = dag.kind, dag.ranks, dag.streams, dag.group
    coll_kinds, nbytes, durations = dag.coll_kind, dag.bytes, dag.duration
    starts, ends, deps = dag.observed_start, dag.observed_end, dag.deps
    # Each row's dependencies as rows, in the order read: a tuple, or a list
    # once the row has a second record.  The closing pass sorts them.
    # Dependencies on ids not read yet are kept by name in `ahead`.
    ahead: Dict[int, List[str]] = {}
    # (rank, stream) -> row of the last record, and the latest observed start so far.
    stream_tail: Dict[Tuple[int, str], Tuple[int, Optional[float]]] = {}
    shared: Dict[str, str] = {}  # one copy of each stream, coll_kind and group_id
    solo: Dict[int, tuple] = {}  # rank -> (rank,), the ranks of a one-record row
    header_seen = False
    for lineno, raw in enumerate(f, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#group,"):
            parts = line.split(",")
            if len(parts) != 5:
                raise ParseError("malformed #group line", lineno)
            _, gid, axis, members_s, rails_s = parts
            if gid in dag.groups:
                raise ParseError(f"group {gid} declared twice", lineno)
            try:
                members = tuple(int(m) for m in members_s.split(";") if m != "")
                rails = frozenset(int(r) for r in rails_s.split(";") if r != "")
            except ValueError:
                raise ParseError("non-integer group member or rail", lineno)
            dag.groups[gid] = CommGroup(id=gid, axis=axis, members=members, rails_touched=rails)
            continue
        if line.startswith("#"):
            continue
        if not header_seen:
            if line != HEADER:
                raise ParseError(f"expected header {HEADER!r}", lineno)
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ParseError(f"expected 10 fields, got {len(parts)}", lineno)
        eid, rank_s, stream, kind, coll_kind, group_id, bytes_s, deps_s, start_s, end_s = parts
        if not eid:
            raise ParseError("empty event_id", lineno)
        try:
            rank = int(rank_s)
            size = int(bytes_s) if bytes_s else 0
            start = float(start_s) if start_s else None
            end = float(end_s) if end_s else None
        except ValueError:
            raise ParseError("malformed numeric field", lineno)
        if start is not None and end is not None and end < start:
            raise ParseError(f"{eid} ends at {end!r}, before its start {start!r}", lineno)
        if kind not in (COMPUTE, COLLECTIVE):
            raise ParseError(f"unknown event kind {kind!r}", lineno)
        if kind == COLLECTIVE:
            if not group_id:
                raise ParseError("collective record without group_id", lineno)
            if group_id not in dag.groups:
                raise ParseError(f"unknown group id {group_id!r}", lineno)
        kind = COMPUTE if kind == COMPUTE else COLLECTIVE
        stream = shared.setdefault(stream, stream)
        coll_kind = shared.setdefault(coll_kind, coll_kind) or None
        group_id = shared.setdefault(group_id, group_id) or None
        i = index.get(eid)
        first = i is None
        if first:
            i = index[eid] = len(ids)
            ids.append(eid)
            kinds.append(kind)
            ranks.append(solo.get(rank) or solo.setdefault(rank, (rank,)))
            streams.append(stream)
            groups.append(group_id)
            coll_kinds.append(coll_kind)
            nbytes.append(size)
            durations.append(end - start if start is not None and end is not None else 0.0)
            starts.append(start)
            ends.append(end)
        else:
            if (kind, coll_kind, group_id) != (kinds[i], coll_kinds[i], groups[i]):
                raise ParseError(f"record of {eid} disagrees with its first record on "
                                 "kind, coll_kind or group_id", lineno)
            row_streams = streams[i]
            if isinstance(row_streams, dict):
                row_streams[rank] = stream
            elif stream != row_streams:  # the ranks so far share one stream
                streams[i] = {**dict.fromkeys(ranks[i], row_streams), rank: stream}
            ranks[i] += (rank,)
        rows = []
        for d in deps_s.split(";"):
            j = index.get(d)
            if j is not None:
                rows.append(j)
            elif d:
                ahead.setdefault(i, []).append(d)
        key = (rank, stream)
        tail = stream_tail.get(key)
        if tail is not None:
            tail_row, tail_start = tail
            rows.append(tail_row)
            if start is None:
                start = tail_start  # a record without a start keeps the stream's
            elif tail_start is not None and start < tail_start:
                raise ParseError(f"{eid} starts at {start!r}, before an earlier record "
                                 f"on rank {rank} stream {stream!r} ({tail_start!r})", lineno)
        stream_tail[key] = (i, start)
        if first:
            deps.append(tuple(rows))
        elif type(deps[i]) is list:
            deps[i] += rows
        else:  # the row's second record
            deps[i] = [*deps[i], *rows]
    for i in sorted(ahead):
        names = sorted(set(ahead[i]))
        for d in names:
            if d not in index:
                raise MissingDependency(f"{ids[i]} depends on unknown event {d}")
        deps[i] += tuple(index[d] for d in names)
    for i, ds in enumerate(deps):
        if len(ranks[i]) > 1:
            ranks[i] = tuple(sorted(set(ranks[i])))
        if type(ds) is list or len(ds) > 1 or i in ds:
            rows = set(ds)
            rows.discard(i)
            deps[i] = tuple(sorted(rows))
    _check_acyclic(deps)
    return dag


def _check_acyclic(deps: List[tuple]) -> None:
    """Reject a dependency cycle (Kahn's algorithm over rows)."""
    indeg = [len(ds) for ds in deps]
    dependents: List[List[int]] = [[] for _ in deps]
    for i, ds in enumerate(deps):
        for d in ds:
            dependents[d].append(i)
    ready = [i for i, n in enumerate(indeg) if not n]
    done = 0
    while ready:
        done += 1
        for nxt in dependents[ready.pop()]:
            indeg[nxt] -= 1
            if not indeg[nxt]:
                ready.append(nxt)
    if done != len(deps):
        raise CyclicDependency("trace dependency edges contain a cycle")
