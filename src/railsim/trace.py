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
record order, and an event's duration is that end minus that start.

A record that repeats the record before it on another rank (same event id
and the same text after the stream, as a collective's per-rank records are
written) passed every check of that text already: the parser reads only its
rank and stream, and applies the per-(rank, stream) order to it.  Any other
record is parsed in full.

A rail-symmetric trace in `save_trace`'s layout is held as the generator
holds a DAG (see the `workload` module): rail 0's rows and the rows that span
rails, with `EventDag.rails`, `spans` and `blocks` set.  `save_trace` writes
each block's rows on rail 0, then the twins of the rows whose ids end in
`.l0` rail by rail.  A block's twin records differ between rails only in
the ranks, each + l, and in the tail of the event id, the group id and each
dependency id (`.l0` on rail 0), so `_twin_template` turns them into text
pieces between the tails, with `%d` at each rank and a name's `%` escaped,
once per block; a rail's records are then one join and one format.
`save_trace` writes each twin pass so.  The parser reads the rail-0 records
as any others.  A record whose id is the `.l1` twin of a row of the open
block starts the block's twin records: the parser builds the block's
template from its rows, and the text of each twin pass must equal the
template's as one string; that text is not split or parsed.  The trace is
held when, besides that:

  * every block has twin records for the same rails 1..R-1;
  * each group a rail-0 row names ends in `.l0`, is declared on rail 0, and
    has a twin on each rail l declared as it moved to rail l (each member
    + l, the same axis, rails {l}) before its twin records;
  * a row that spans rails names every rail's twin of each rail-0 row it
    depends on, as `EventDag.dep_ids` does, and is no scale-out collective;
  * no stream name is used both by a rail-0 row and by a row that spans
    rails; with rail 0's ranks multiples of R (below), a twin record then
    shares its (rank, stream) only with its rail's twin records, which
    follow rail 0's rows in row order;
  * so record order is checked once, on rail 0: each rail-0 row depends on
    the rail-0 row before it on each of its (stream, rank)s, starts no
    earlier than any rail-0 row before it there and ends no earlier than
    it starts;
  * a rail-0 row depends on rail-0 rows only, has all its records in its
    block and ranks that are multiples of R, and no other held id starts
    with its id less its final `0`;
  * the last block has twin records, and the rows a spanning row depends
    on keep their order when expanded.

When any of these fails the parser starts over and reads the file row by
row, every record parsed and a row per event; so does any trace that raises
an error, so every error comes from the row-by-row parse.

The parser is the gate for traces: besides malformed records and `#group`
lines it rejects a negative rank, negative bytes, an infinite or nan
observed time, a group declared twice, a group with a negative member or
rail or a repeated member, a record that ends before it starts, a later
record of an event whose kind, coll_kind or group_id differs from the first,
observed starts that go back in time along a (rank, stream), a dependency
naming no event and a dependency cycle.  The cycle check is an iterative
depth-first pass over the rows' dependencies, started only from rows that
depend on a later row: a row read in one record depends only on earlier
rows, so every cycle passes through one of them.
"""

from __future__ import annotations

import bisect
import io
import math
from typing import Dict, List, Optional, Sequence, Tuple

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


def _format_records(dag: EventDag, rows: Sequence[int], text: FloatText, lines: List[str],
                    f) -> None:
    """Append the rail-0 records of `rows` to `lines`, each ending in a
    newline: a row's records in rank order, rows in the order given.  Write
    `lines` to `f` whenever they reach `WRITE_CHUNK_LINES`."""
    ids, kinds, ranks, streams = dag.ids, dag.kind, dag.ranks, dag.streams
    coll_kinds, groups, nbytes = dag.coll_kind, dag.group, dag.bytes
    starts, ends, dep_ids = dag.observed_start, dag.observed_end, dag.dep_ids
    for i in rows:
        eid = ids[i]
        rest = (f"{kinds[i]},{coll_kinds[i] or ''},{groups[i] or ''},{nbytes[i]},"
                f"{';'.join(dep_ids(i))},{text[starts[i]]},{text[ends[i]]}\n")
        rs, s = ranks[i], streams[i]
        if len(rs) == 1 and not isinstance(s, dict):  # most rows; no sort
            lines.append(f"{eid},{rs[0]},{s},{rest}")
        else:
            for rank in sorted(rs):
                stream = s.get(rank, "") if isinstance(s, dict) else s
                lines.append(f"{eid},{rank},{stream},{rest}")
        if len(lines) >= WRITE_CHUNK_LINES:
            f.write("".join(lines))
            lines.clear()


def _twin_template(dag: EventDag, rows: Sequence[int], deps: Sequence[Sequence[Tuple[str, bool]]],
                   text: FloatText) -> Tuple[List[str], List[int]]:
    """The records of `rows`' twins on a rail l >= 1 as (parts, ranks) for
    `_twin_text`: between the parts go the rail's tails (of the event id,
    the group id and each (id, True) of `deps[k]`, the rail-0 dependency ids
    of rows[k], sorted), and each `%d` is a rank of `ranks`, + l."""
    ids, kinds, all_ranks, streams = dag.ids, dag.kind, dag.ranks, dag.streams
    coll_kinds, groups, nbytes = dag.coll_kind, dag.group, dag.bytes
    starts, ends = dag.observed_start, dag.observed_end
    parts, ranks, carry = [], [], ""  # carry: the text after the last tail
    for i, names in zip(rows, deps):
        gid = groups[i]
        segs = [f",{kinds[i]},{(coll_kinds[i] or '').replace('%', '%%')},", f",{nbytes[i]},"]
        for k, (name, slot) in enumerate(names):
            segs[-1] += (";" if k else "") + (name[:-1] if slot else name).replace("%", "%%")
            if slot:
                segs.append("")
        segs[-1] += f",{text[starts[i]]},{text[ends[i]]}\n"
        if gid:
            segs[0] += gid[:-1].replace("%", "%%")
        else:
            segs[:2] = [segs[0] + segs[1]]
        head, s = ids[i][:-1].replace("%", "%%"), streams[i]
        for r in sorted(all_ranks[i]):
            stream = s.get(r, "") if isinstance(s, dict) else s
            record = [carry + head, f",%d,{stream.replace('%', '%%')}{segs[0]}", *segs[1:]]
            carry = record.pop()
            parts += record
            ranks.append(r)
    parts.append(carry)
    return parts, ranks


def _twin_text(template: Tuple[List[str], List[int]], rail: int) -> str:
    """The records a `_twin_template` stands for on `rail`."""
    parts, ranks = template
    return str(rail).join(parts) % tuple([r + rail for r in ranks])


def save_trace(dag: EventDag, path: str) -> None:
    """Write `dag` as a trace, one record per (event, rank), in the
    row-by-row order (`EventDag.passes`) and rank order: rail-0 lines in
    chunks of about `WRITE_CHUNK_LINES`, and each twin pass of a DAG that
    holds one rail from its block's `_twin_template`."""
    text, ids, deps, spans = FloatText(), dag.ids, dag.deps, dag.spans
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        lines = [HEADER + "\n"]
        for gid in sorted(dag.groups):
            g = dag.groups[gid]
            members = ";".join(str(m) for m in g.members)
            rails = ";".join(str(r) for r in sorted(g.rails_touched))
            lines.append(f"#group,{gid},{g.axis},{members},{rails}\n")
        for rows, l in dag.passes():
            if not l:
                _format_records(dag, rows, text, lines, f)
                continue
            if l == 1:  # the block's first twin pass; the rail-0 order of
                # the dependency ids is every rail's (see `workload`)
                template = _twin_template(dag, rows, [sorted(
                    (ids[d], d not in spans) for d in deps[i]) for i in rows], text)
                f.write("".join(lines))
                lines.clear()
            f.write(_twin_text(template, l))
        f.write("".join(lines))


def load_trace(path: str) -> EventDag:
    """Parse a trace file into an EventDag, held as one rail when the trace
    is rail-symmetric in `save_trace`'s layout (see the module docstring).

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


class _NotHeld(Exception):
    """The trace breaks a condition of the held parse after it skipped lines."""


def _parse(f) -> EventDag:
    """`_read` the trace held as one rail; where that fails, or raises,
    read it again from the start row by row."""
    try:
        return _read(f, hold=True)
    except (_NotHeld, ParseError, MissingDependency, CyclicDependency, UnicodeDecodeError):
        pass  # out of the handler, so the first attempt's rows are freed
    f.seek(0)
    return _read(f, hold=False)


def _read(f, hold: bool) -> EventDag:
    """Parse the lines of `f`; with `hold`, hold a rail-symmetric trace as
    one rail, raising _NotHeld once it skipped lines and a condition fails.
    Until it skips a line it parses as it does row by row, so a condition
    that fails then only ends the attempt to hold the trace."""
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
    # The held parse: the first row of the open block; the rail count once
    # the first block's twin records ended (0 before); whether lines were
    # skipped (`lineno` is off from then on); and (rail, block) of a twin
    # pass the first block may still have.  (stream, rank) -> the last
    # rail-0 row on it and the latest start among the rail-0 rows on it, over
    # the blocks so far.
    block_start, rails, skipped, trial = 0, 0, False, None
    kept_tail: Dict[Tuple[str, int], Tuple[int, float]] = {}
    checked: set = set()  # (group, rail) of the twin groups checked
    text = FloatText()
    for lineno, raw in enumerate(f, start=1):
        if trial is not None:  # after a twin pass of the first block
            l, block = trial
            want = _twin_text(block.template, l)
            if want.startswith(raw):
                if not (_check_twin_groups(dag, block, l, checked)
                        and f.read(len(want) - len(raw)) == want[len(raw):]):
                    raise _NotHeld
                trial = (l + 1, block)
                continue
            rails, trial = l, None
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
            if (hold and eid[-3:] == ".l1" and eid not in index
                    and index.get(eid[:-1] + "0", -1) >= block_start):
                # The first twin record of the open block's rows.
                block = _twin_block(dag, block_start, ahead, text, kept_tail)
                want = block and _twin_text(block.template, 1)
                if want and want.startswith(raw):
                    skipped = True
                    for l in range(1, rails or 2):
                        if l > 1:
                            want, raw = _twin_text(block.template, l), ""
                        if not (_check_twin_groups(dag, block, l, checked)
                                and f.read(len(want) - len(raw)) == want[len(raw):]):
                            raise _NotHeld
                    if not rails:
                        trial = (2, block)
                    block_start = len(ids)
                    dag.blocks.append(block_start)
                    dag.spans.update(block.spans)
                    last_eid = last_rest = None
                    continue
                if skipped:
                    raise _NotHeld
                hold = False  # parse on row by row
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
                if hold and i < block_start:  # a row of a block whose twins were read
                    raise _NotHeld
                if start is not None and (starts[i] is None or start > starts[i]):
                    starts[i] = start
                if end is not None and (ends[i] is None or end > ends[i]):
                    ends[i] = end
                if starts[i] is not None and ends[i] is not None:
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
    if trial is not None:
        rails = trial[0]
    if skipped and not _hold(dag, block_start, rails, ahead, kept_tail):
        raise _NotHeld
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


class _Block:
    """The rows of a block whose twin records follow: the rail-0 rows
    (`kept`), the `_twin_template` of their twins, the rows that span
    rails and the groups the rail-0 rows name."""

    __slots__ = ("kept", "template", "spans", "groups")


# `_twin_block`'s tail of a (stream, rank) no rail-0 row was on yet.
_NO_TAIL = (None, -math.inf)


def _twin_block(dag: EventDag, a: int, ahead: Dict[int, List[str]], text: FloatText,
                tail: Dict[Tuple[str, int], Tuple[int, float]]) -> Optional[_Block]:
    """Rows a.. of `dag` as a block whose twin records follow, or None when
    they cannot have twins: a spanning scale-out collective, a rail-0 row
    that depends on a row spanning rails, ends before it starts, or on a
    (stream, rank) does not depend on the rail-0 row before it or starts
    before one, or a group off rail 0 or not named `.l0`.  `tail` maps each
    (stream, rank) to the last rail-0 row on it and the latest start among
    the rail-0 rows on it, over the blocks so far; it is updated, and so
    are each row's ranks, sorted."""
    ids, ranks, streams, deps = dag.ids, dag.ranks, dag.streams, dag.deps
    starts, ends = dag.observed_start, dag.observed_end
    groups, group, kinds = dag.groups, dag.group, dag.kind
    b = _Block()
    b.kept, b.spans, heads = [], [], []
    for i in range(a, len(ids)):
        if ids[i][-3:] != ".l0":
            if kinds[i] == COLLECTIVE and groups[group[i]].is_scaleout:
                return None
            b.spans.append(i)
            continue
        rs, s, ds, start = ranks[i], streams[i], deps[i], starts[i]
        if start is not None and ends[i] is not None and ends[i] < start:
            return None
        b.kept.append(i)
        if len(rs) > 1:
            rs = ranks[i] = tuple(sorted(set(rs)))
        for r in rs:
            key = (s.get(r, "") if isinstance(s, dict) else s, r)
            prev, latest = tail.get(key, _NO_TAIL)
            if prev is not None and prev not in ds or start is not None and start < latest:
                return None
            # A record without a start keeps the stream's.
            tail[key] = (i, latest if start is None else start)
        names = {ids[d] for d in ds}
        names.update(ahead.get(i, ()))
        if not all(n[-3:] == ".l0" for n in names):
            return None
        heads.append([(n, True) for n in sorted(names)])
    b.groups = {group[i] for i in b.kept} - {None}
    for gid in b.groups:
        if gid[-3:] != ".l0" or groups[gid].rails_touched != {0}:
            return None
    b.template = _twin_template(dag, b.kept, heads, text)
    return b


def _check_twin_groups(dag: EventDag, block: _Block, rail: int, checked: set) -> bool:
    """Whether each group `block`'s rail-0 rows name has a twin on `rail`
    declared as the group moved to `rail`: each member + rail, the same
    axis, rails {rail}.  (group, rail) pairs checked are kept in `checked`."""
    groups = dag.groups
    for gid in block.groups:
        if (gid, rail) not in checked:
            g, t = groups[gid], groups.get(twin(gid, rail))
            if (t is None or t.axis != g.axis or t.rails_touched != {rail}
                    or t.members != tuple(m + rail for m in g.members)):
                return False
            checked.add((gid, rail))
    return True


def _hold(dag: EventDag, end: int, rails: int, ahead: Dict[int, List[str]],
          tail: Dict[Tuple[str, int], Tuple[int, float]]) -> bool:
    """Finish a held parse whose last block ends at row `end`, which must
    be the last row: check that the ranks of `tail`'s (stream, rank)s, rail
    0's, are multiples of `rails` and that no spanning row uses one of its
    streams; set `rails`; resolve each spanning row's dependency ids to
    (row, rail) and check that they name every rail's twin of each rail-0
    row (as `EventDag.twin_deps`) in an order that expands in order; check
    the ids."""
    ids, deps, spans, blocks, streams = dag.ids, dag.deps, dag.spans, dag.blocks, dag.streams
    if end != len(ids) or any(rank % rails for _, rank in tail):
        return False
    kept_streams = {stream for stream, _ in tail}
    dag.rails = rails
    for i in spans:
        s = streams[i]
        if not kept_streams.isdisjoint(s.values() if isinstance(s, dict) else (s,)):
            return False
        pairs = {(d, 0) for d in deps[i]}
        for name in ahead.get(i, ()):
            try:
                pairs.add(dag.locate(name))
            except KeyError:
                return False
        rows = sorted(d for d, l in pairs if not l)
        if pairs != {(d, l) for d in rows for l in (range(rails) if d not in spans else (0,))}:
            return False
        if i in ahead:
            ahead[i], deps[i] = [], rows
        # The held order maps to the expanded one when the rail-0 rows it
        # names sit in one block and no row it names in a later block.
        kept = [d for d in rows if d not in spans]
        if kept and not (bisect.bisect(blocks, kept[0]) == bisect.bisect(blocks, kept[-1])
                         >= bisect.bisect(blocks, rows[-1])):
            return False
    order = sorted(ids)
    for x, y in zip(order, order[1:]):
        if x[-3:] == ".l0" and y.startswith(x[:-1]) or y[-3:] == ".l0" and x.startswith(y[:-1]):
            return False
    return True


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
    if min(members, default=0) < 0 or min(rails, default=0) < 0:
        raise ParseError(f"group {gid} has a negative member or rail", lineno)
    if len(set(members)) != len(members):
        raise ParseError(f"group {gid} has duplicate members", lineno)
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