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
between rows, and each distinct rank text is converted once.

An event's observed start and end are the latest over its records, so a
collective's start is the join of its slowest member rank whatever the
record order, and a compute event's duration is that end minus that start.

A record that repeats the record before it on another rank (same event id
and the same text after the stream, as a collective's per-rank records are
written) passed every check of that text already: the parser reads only its
rank and stream, and applies the per-(rank, stream) order to it.  Any other
record is parsed in full.

The parser is the gate for traces: besides malformed records it rejects a
negative rank, negative bytes, an infinite or nan observed time, a group
declared twice, a record that ends before it starts, a later record of an
event whose kind, coll_kind or group_id differs from the first, observed
starts that go back in time along a (rank, stream), a dependency naming no
event and a dependency cycle.  The cycle check is an iterative depth-first
pass over the rows' dependencies, started only from rows that depend on a
later row: a row read in one record depends only on earlier rows, so every
cycle passes through one of them.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

from .errors import CyclicDependency, MissingDependency, ParseError
from .model import CommGroup
from .workload import COLLECTIVE, COMPUTE, EventDag, twin

HEADER = "event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,observed_start_s,observed_end_s"


# Lines formatted before they are written out together, by `save_trace` and
# the `timeline.csv` writer.
WRITE_CHUNK_LINES = 2048
# Distinct times a `FloatText` holds before it starts over, so that times
# which never repeat cost no more memory than one chunk of lines.
TIMES_KEPT = 4096


class FloatText(dict):
    """`repr(float(t))` of each time, formatted once per distinct value, and
    "" for None: times repeat across the ranks and stages that move in
    lockstep.  Holds at most `TIMES_KEPT` values."""

    def __missing__(self, t) -> str:
        text = "" if t is None else repr(float(t))
        if t or t is None:  # 0.0 and -0.0 are one key but print differently
            if len(self) >= TIMES_KEPT:
                self.clear()
            self[t] = text
        return text


def save_trace(dag: EventDag, path: str) -> None:
    """Write `dag` as a trace, one record per (event, rank) in row order and
    rank order; a DAG that holds one rail is written in its row-by-row order
    (`EventDag.twin_rows`), each twin's records formatted as they are
    written.  Lines are written in chunks of `WRITE_CHUNK_LINES` as they are
    formatted, so the file's text is never held whole."""
    kinds, ranks, streams = dag.kind, dag.ranks, dag.streams
    coll_kinds, groups, nbytes = dag.coll_kind, dag.group, dag.bytes
    starts, ends, text = dag.observed_start, dag.observed_end, FloatText()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        lines = [HEADER]
        for gid in sorted(dag.groups):
            g = dag.groups[gid]
            members = ";".join(str(m) for m in g.members)
            rails = ";".join(str(r) for r in sorted(g.rails_touched))
            lines.append(f"#group,{gid},{g.axis},{members},{rails}")
        for i, l, eid in dag.twin_rows():
            gid = groups[i] and twin(groups[i], l)
            rest = (f"{kinds[i]},{coll_kinds[i] or ''},{gid or ''},{nbytes[i]},"
                    f"{';'.join(dag.dep_ids(i, l))},{text[starts[i]]},{text[ends[i]]}")
            rs, s = ranks[i], streams[i]
            if len(rs) == 1 and not isinstance(s, dict):  # most rows; no sort
                lines.append(f"{eid},{rs[0] + l},{s},{rest}")
            else:
                for rank in sorted(rs):
                    stream = s.get(rank, "") if isinstance(s, dict) else s
                    lines.append(f"{eid},{rank + l},{stream},{rest}")
            if len(lines) >= WRITE_CHUNK_LINES:
                f.write("\n".join(lines) + "\n")
                lines.clear()
        if lines:
            f.write("\n".join(lines) + "\n")


def load_trace(path: str) -> EventDag:
    """Parse a trace file into an EventDag.

    Raises ParseError with a line number on malformed or disagreeing records,
    a negative rank or bytes, a non-finite observed time, a group declared
    twice, a record that ends before it starts and observed starts out of
    stream order, MissingDependency when a dependency names no event, and
    CyclicDependency when the reconstructed edges contain a cycle.  Text
    that is not UTF-8 raises ParseError naming the file.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return _parse(f)
        except UnicodeDecodeError as e:
            # The decoder reads ahead of the parser, so the line is unknown.
            raise ParseError(f"trace {path} is not UTF-8 text ({e.reason})") from None


def loads_trace(text: str) -> EventDag:
    return _parse(io.StringIO(text))


def _parse(f) -> EventDag:
    dag = EventDag()
    ids, index = dag.ids, dag.index
    kinds, ranks, streams, groups = dag.kind, dag.ranks, dag.streams, dag.group
    coll_kinds, nbytes, durations = dag.coll_kind, dag.bytes, dag.duration
    starts, ends, deps = dag.observed_start, dag.observed_end, dag.deps
    # Each row's dependencies as rows, without the row itself: a sorted tuple
    # of distinct rows, or a list once the row has a second record (listed in
    # `multi`).  Dependencies on ids not read yet are kept by name in `ahead`.
    # The closing pass sorts the rows of `multi` and `ahead`.
    ahead: Dict[int, List[str]] = {}
    multi: List[int] = []
    # stream -> rank -> row of the last record on the (rank, stream), and the
    # latest observed start on it so far.
    stream_tail: Dict[str, Dict[int, Tuple[int, Optional[float]]]] = {}
    shared: Dict[str, str] = {}  # one copy of each stream, coll_kind and group_id
    solo: Dict[str, tuple] = {}  # rank text -> (rank,), the ranks of a one-record row
    # The last record's event id, its text after the stream, row and
    # observed start.
    last_eid = last_rest = None
    last_row, last_start = -1, None
    header_seen = False
    for lineno, raw in enumerate(f, start=1):
        line = raw.rstrip("\n")
        parts = line.split(",", 3)
        if len(parts) < 4 or not header_seen or line[:1] == "#":
            if not line.strip():
                continue
            if line.startswith("#group,"):
                _declare_group(dag, line, lineno)
                continue
            if line.startswith("#"):
                continue
            if not header_seen:
                if line != HEADER:
                    raise ParseError(f"expected header {HEADER!r}", lineno)
                header_seen = True
                continue
            raise ParseError(f"expected 10 fields, got {len(parts)}", lineno)
        eid, rank_s, stream, rest = parts
        stream = shared.setdefault(stream, stream)
        if rest == last_rest and eid == last_eid:
            # Another rank's copy of the last record (a collective's records
            # in a row): kind, group, bytes, times and dependencies all
            # passed with that record, so only the rank and stream are new.
            rank = (solo.get(rank_s) or _rank(solo, rank_s, lineno))[0]
            i, start, first, rows = last_row, last_start, False, []
        else:
            fields = rest.split(",")
            if len(fields) != 7:
                raise ParseError(f"expected 10 fields, got {len(fields) + 3}", lineno)
            if not eid:
                raise ParseError("empty event_id", lineno)
            one = solo.get(rank_s) or _rank(solo, rank_s, lineno)
            rank = one[0]
            kind, coll_kind, group_id, bytes_s, deps_s, start_s, end_s = fields
            try:
                size = int(bytes_s) if bytes_s else 0
                start = float(start_s) if start_s else None
                end = float(end_s) if end_s else None
            except ValueError:
                raise ParseError("malformed numeric field", lineno) from None
            if size < 0:
                raise ParseError(f"{eid} has negative bytes {size}", lineno)
            # t - t is nan, so true, for an infinite or nan t alone.
            if start is not None and start - start or end is not None and end - end:
                raise ParseError(f"{eid} has a non-finite observed time", lineno)
            if start is not None and end is not None and end < start:
                raise ParseError(f"{eid} ends at {end!r}, before its start {start!r}", lineno)
            if kind == COMPUTE:
                kind = COMPUTE
            elif kind == COLLECTIVE:
                kind = COLLECTIVE
                if not group_id:
                    raise ParseError("collective record without group_id", lineno)
                if group_id not in dag.groups:
                    raise ParseError(f"unknown group id {group_id!r}", lineno)
            else:
                raise ParseError(f"unknown event kind {kind!r}", lineno)
            coll_kind = shared.setdefault(coll_kind, coll_kind) or None
            group_id = shared.setdefault(group_id, group_id) or None
            i = index.get(eid)
            first = i is None
            if first:
                i = index[eid] = len(ids)
                ids.append(eid)
                kinds.append(kind)
                ranks.append(one)
                streams.append(stream)
                groups.append(group_id)
                coll_kinds.append(coll_kind)
                nbytes.append(size)
                durations.append(end - start if start is not None and end is not None else 0.0)
                starts.append(start)
                ends.append(end)
            elif (kind, coll_kind, group_id) != (kinds[i], coll_kinds[i], groups[i]):
                raise ParseError(f"record of {eid} disagrees with its first record on "
                                 "kind, coll_kind or group_id", lineno)
            else:  # keep the latest start and end over its records
                if start is not None and (starts[i] is None or start > starts[i]):
                    starts[i] = start
                if end is not None and (ends[i] is None or end > ends[i]):
                    ends[i] = end
                if kind == COMPUTE and starts[i] is not None and ends[i] is not None:
                    durations[i] = ends[i] - starts[i]
            rows = []
            if deps_s:
                for d in deps_s.split(";"):
                    j = index.get(d)
                    if j is None:
                        if d:
                            ahead.setdefault(i, []).append(d)
                    elif j != i and j not in rows:
                        rows.append(j)
            last_eid, last_rest, last_row, last_start = eid, rest, i, start
        if not first:
            row_streams = streams[i]
            if isinstance(row_streams, dict):
                row_streams[rank] = stream
            elif stream != row_streams:  # the ranks so far share one stream
                streams[i] = {**dict.fromkeys(ranks[i], row_streams), rank: stream}
            ranks[i] += (rank,)
        tails = stream_tail.get(stream)
        if tails is None:
            tails = stream_tail[stream] = {}
        tail = tails.get(rank)
        if tail is not None:
            tail_row, tail_start = tail
            if tail_row != i and tail_row not in rows:
                rows.append(tail_row)
            if start is None:
                start = tail_start  # a record without a start keeps the stream's
            elif tail_start is not None and start < tail_start:
                raise ParseError(f"{eid} starts at {start!r}, before an earlier record "
                                 f"on rank {rank} stream {stream!r} ({tail_start!r})", lineno)
        tails[rank] = (i, start)
        if first:
            if len(rows) > 1:
                rows.sort()
            deps.append(tuple(rows))
        elif type(deps[i]) is list:
            deps[i] += rows
        else:  # the row's second record
            deps[i] = [*deps[i], *rows]
            multi.append(i)
    for i in sorted(ahead):
        names = sorted(set(ahead[i]))
        for d in names:
            if d not in index:
                raise MissingDependency(f"{ids[i]} depends on unknown event {d}")
        deps[i] = [*deps[i], *(index[d] for d in names)]
    # Rows that depend on a later row.  A row read in one record depends only
    # on earlier rows, so every cycle passes through one of these.
    forward: List[int] = []
    for i in sorted({*multi, *ahead}):
        if len(ranks[i]) > 1:
            ranks[i] = tuple(sorted(set(ranks[i])))
        ds = deps[i] = tuple(sorted(set(deps[i])))
        if ds and ds[-1] > i:
            forward.append(i)
    _check_acyclic(deps, forward)
    return dag


def _declare_group(dag: EventDag, line: str, lineno: int) -> None:
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
        raise ParseError("non-integer group member or rail", lineno) from None
    dag.groups[gid] = CommGroup(id=gid, axis=axis, members=members, rails_touched=rails)


def _rank(solo: Dict[str, tuple], text: str, lineno: int) -> tuple:
    """`(rank,)` for a rank text not seen before, kept in `solo`."""
    try:
        rank = int(text)
    except ValueError:
        raise ParseError("malformed numeric field", lineno) from None
    if rank < 0:
        raise ParseError(f"negative rank {rank}", lineno)
    one = solo[text] = (rank,)
    return one


def _check_acyclic(deps: List[tuple], forward: List[int]) -> None:
    """Reject a dependency cycle: an iterative depth-first pass over `deps`
    from each row in `forward`, the rows that depend on a later row.  A row
    below the lowest of them depends only on lower rows, so no cycle passes
    through it and the pass does not enter it."""
    if not forward:
        return
    low = min(forward)
    # 0 unseen, 1 on the current path (its ~row still on the stack), 2 done
    state = bytearray(len(deps))
    for root in forward:
        stack = [root]
        while stack:
            row = stack.pop()
            if row < 0:
                state[~row] = 2
            elif not state[row]:
                state[row] = 1
                stack.append(~row)
                for d in deps[row]:
                    if d >= low:
                        seen = state[d]
                        if not seen:
                            stack.append(d)
                        elif seen == 1:
                            raise CyclicDependency("trace dependency edges contain a cycle")
