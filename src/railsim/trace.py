"""Trace file format: one record per (rank, event), plus group declarations.

Layout (UTF-8, comma-separated, header line required):

    event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,observed_start_s,observed_end_s

Lines starting with ``#group,`` declare communication groups:

    #group,<id>,<axis>,<member;member;...>,<rail;rail;...>

Dependency edges are reconstructed from the explicit ``dep_ids`` column plus
per-(rank, stream) record order: a record depends on the previous record of
the same rank and stream.

The parser is the gate for traces: besides malformed records it rejects a
later record of an event whose kind, coll_kind or group_id differs from the
first, observed starts that go back in time along a (rank, stream), a
dependency naming no event and a dependency cycle.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

from .errors import CyclicDependency, MissingDependency, ParseError
from .model import CommGroup
from .workload import COLLECTIVE, COMPUTE, Event, EventDag

HEADER = "event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,observed_start_s,observed_end_s"


def _fmt_time(t) -> str:
    return "" if t is None else repr(float(t))


def save_trace(dag: EventDag, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(HEADER + "\n")
        for gid in sorted(dag.groups):
            g = dag.groups[gid]
            members = ";".join(str(m) for m in g.members)
            rails = ";".join(str(r) for r in sorted(g.rails_touched))
            f.write(f"#group,{gid},{g.axis},{members},{rails}\n")
        for ev in dag.events.values():
            deps = ";".join(ev.deps)
            for rank in sorted(ev.rank_set):
                f.write(
                    f"{ev.id},{rank},{ev.streams.get(rank, '')},{ev.kind},"
                    f"{ev.coll_kind or ''},{ev.group or ''},{ev.bytes},{deps},"
                    f"{_fmt_time(ev.observed_start)},{_fmt_time(ev.observed_end)}\n"
                )


def load_trace(path: str) -> EventDag:
    """Parse a trace file into an EventDag.

    Raises ParseError with a line number on malformed or disagreeing records
    and on observed starts out of stream order, MissingDependency when a
    dependency names no event, and CyclicDependency when the reconstructed
    edges contain a cycle.
    """
    with open(path, "r", encoding="utf-8") as f:
        return _parse(f)


def loads_trace(text: str) -> EventDag:
    return _parse(io.StringIO(text))


def _parse(f) -> EventDag:
    dag = EventDag()
    # (rank, stream) -> last event id, and the latest observed start so far.
    stream_tail: Dict[Tuple[int, str], Tuple[str, Optional[float]]] = {}
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
            nbytes = int(bytes_s) if bytes_s else 0
            start = float(start_s) if start_s else None
            end = float(end_s) if end_s else None
        except ValueError:
            raise ParseError("malformed numeric field", lineno)
        if kind not in (COMPUTE, COLLECTIVE):
            raise ParseError(f"unknown event kind {kind!r}", lineno)
        if kind == COLLECTIVE:
            if not group_id:
                raise ParseError("collective record without group_id", lineno)
            if group_id not in dag.groups:
                raise ParseError(f"unknown group id {group_id!r}", lineno)
        # Until the last record is read, an event gathers its ranks and
        # dependencies in lists, deduplicated and sorted once at the end.
        ev = dag.events.get(eid)
        if ev is None:
            ev = dag.add(Event(
                id=eid, kind=kind, rank_set=[rank], streams={rank: stream},
                group=group_id or None, coll_kind=coll_kind or None, bytes=nbytes,
                deps=deps_s.split(";"), observed_start=start, observed_end=end,
            ))
            if start is not None and end is not None:
                ev.duration = end - start
        else:
            if (kind, coll_kind or None, group_id or None) != (ev.kind, ev.coll_kind, ev.group):
                raise ParseError(f"record of {eid} disagrees with its first record on "
                                 "kind, coll_kind or group_id", lineno)
            ev.rank_set.append(rank)
            ev.streams[rank] = stream
            ev.deps += deps_s.split(";")
        key = (rank, stream)
        tail = stream_tail.get(key)
        if tail is not None:
            tail_id, tail_start = tail
            ev.deps.append(tail_id)
            if start is None:
                start = tail_start  # a record without a start keeps the stream's
            elif tail_start is not None and start < tail_start:
                raise ParseError(f"{eid} starts at {start!r}, before an earlier record "
                                 f"on rank {rank} stream {stream!r} ({tail_start!r})", lineno)
        stream_tail[key] = (eid, start)
    for eid, ev in dag.events.items():
        deps = set(ev.deps)
        deps.discard(eid)
        deps.discard("")
        ev.rank_set = tuple(sorted(set(ev.rank_set)))
        ev.deps = tuple(sorted(deps))
    _check_edges(dag)
    return dag


def _check_edges(dag: EventDag) -> None:
    """Reject a dependency naming no event, then cycles (Kahn's algorithm)."""
    events = dag.events
    indeg: Dict[str, int] = {}
    dependents: Dict[str, List[str]] = {}
    for eid, ev in events.items():
        for d in ev.deps:
            if d not in events:
                raise MissingDependency(f"{eid} depends on unknown event {d}")
            dependents.setdefault(d, []).append(eid)
        indeg[eid] = len(ev.deps)
    ready = [eid for eid, n in indeg.items() if not n]
    done = 0
    while ready:
        done += 1
        for nxt in dependents.get(ready.pop(), ()):
            indeg[nxt] -= 1
            if not indeg[nxt]:
                ready.append(nxt)
    if done != len(events):
        raise CyclicDependency("trace dependency edges contain a cycle")
