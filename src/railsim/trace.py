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
`save_trace` writes each twin pass so.  As the parser reads the block's
rail-0 records it checks the conditions below and builds the same pieces
from the fields it split (a copy record reuses the row's), or from the
rows as the block closes if a row's records leave rank order or name other
ids.  The `.l1` twin of the block's first rail-0 record closes the block;
one loop then compares each twin pass, read as one string, with the
template's text, which is not split or parsed.  The trace is held when,
besides that (as when the template was built after reading the rows, but
for the rule on a rising start):

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
    with its id less its final `0`; its start does not rise at a record
    read after a later row's first record;
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
        for r in sorted(set(all_ranks[i])):
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
    # The held parse.  `zero`: the record is a rail-0 row's; `later`: and no
    # copy of the row's first.  The open block's first row, `.l1` prefix,
    # rail-0 and spanning rows, groups, template (parts, ranks, text after
    # the last tail, the row's pieces) unless `rebuild`, and `pending` (row,
    # least start) pairs, checked with each row's end as the block closes.
    # Rail-0 ranks and streams; the latest start of `later` rows by (stream,
    # rank), as record order bounds the others.  The rail count, whether
    # lines were skipped, and the closed block's template, groups, next pass.
    zero = later = False
    block_start, first_twin, kept, spans, gids = 0, _NO_TWIN, [], [], set()
    tparts, tranks, carry, row_t, rebuild, pending = [], [], "", None, False, []
    zero_ranks, zero_streams, raised = set(), set(), {}
    rails, skipped, template, twin_groups, pass_l = 0, False, None, None, 0
    checked: set = set()  # (group, rail) of the twin groups checked
    text = FloatText()
    for lineno, raw in enumerate(f, start=1):
        if hold and (pass_l or raw.startswith(first_twin)):
            if not (pass_l or any(starts[i] is not None and (starts[i] < t or (
                    ends[i] is not None and ends[i] < starts[i])) for i, t in pending)):
                # The open block's first twin record: close the block.
                template = _twin_template(dag, kept, [[(n, True) for n in sorted(
                    {ids[d] for d in deps[i]}.union(ahead.get(i, ())))] for i in kept],
                    text) if rebuild else (tparts + [carry], tranks)
                twin_groups, pass_l = gids, 1
            want = pass_l and _twin_text(template, pass_l)
            if want and want.startswith(raw):  # one twin pass of the block, read whole
                if not (_check_twin_groups(dag, twin_groups, pass_l, checked)
                        and f.read(len(want) - len(raw)) == want[len(raw):]):
                    raise _NotHeld
                if pass_l == 1:  # the next block opens
                    skipped, block_start = True, len(ids)
                    dag.blocks.append(block_start)
                    dag.spans.update(spans)
                    first_twin, kept, spans, gids, pending = _NO_TWIN, [], [], set(), []
                    tparts, tranks, carry, rebuild = [], [], "", False
                    last_eid = last_rest = None
                pass_l = (pass_l + 1) % rails if rails else pass_l + 1
                continue
            if pass_l < 2:  # the block cannot have twins, or its first pass differs
                hold = zero = _stop(skipped)
            elif rails:  # a later block lacks a twin pass
                raise _NotHeld
            rails, pass_l = rails or pass_l, 0  # the first block's passes ended
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
            zero = hold and eid[-3:] == ".l0"
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
                    if zero and i < len(ids) - 1:  # it rose after a later row was read
                        hold = zero = _stop(skipped)
                    starts[i] = start
                if end is not None and (ends[i] is None or end > ends[i]):
                    ends[i] = end
                if starts[i] is not None and ends[i] is not None:
                    durations[i] = ends[i] - starts[i]
            rows = []
            names = deps_s.split(";") if deps_s else ()
            for d in names:
                j = index.get(d)
                if j is None:
                    if d:
                        ahead.setdefault(i, []).append(d)
                elif j != i and j not in rows:
                    rows.append(j)
            last_eid, last_rest, last_row, last_start = eid, rest, i, start
            later = zero and not first
            if zero:
                if first:
                    kept.append(i)
                    first_twin = first_twin if len(kept) > 1 else eid[:-1] + "1,"
                    gids.add(group_id)
                    # Its twins' text after the stream, `_CUT` at each tail (names checked below).
                    segs = (f",{kind},{coll_kind or ''},{group_id and group_id[:-1] + _CUT or ''},"
                            f"{size},{deps_s and deps_s[:-1].replace('0;', _CUT + ';') + _CUT}"
                            ).replace("%", "%%").split(_CUT)
                    segs[-1] += f",{text[start]},{text[end]}\n"
                    row_t = (eid[:-1].replace("%", "%%"), segs[0], segs[1:])
                # Names as written are the template's: once, sorted, ending `.l0`, not the row's id.
                off = later or (deps_s + ";").count(".l0;") != len(names)
                if off and any(d and d[-3:] != ".l0" for d in names):  # a row off rail 0
                    hold = zero = _stop(skipped)
                rebuild = rebuild or off or eid in names or any(map(str.__ge__, names, names[1:]))
                if later:  # its times are checked when the block closes
                    pending.append((i, -math.inf))
            elif hold and first:  # a row that spans rails
                spans.append(i)
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
                # A name the record lacks (of a rail-0 row, by the stream rule).
                rebuild = rebuild or zero and (first or tail_row not in deps[i])
            if start is None:
                if zero and tail_start is not None:  # its row must start no earlier
                    pending.append((i, tail_start))
                start = tail_start  # a record without a start keeps the stream's
            elif tail_start is not None and start < tail_start:
                raise ParseError(f"{eid} starts at {start!r}, before an earlier record "
                                 f"on rank {rank} stream {stream!r} ({tail_start!r})", lineno)
        tails[rank] = (i, start)
        if zero:
            zero_ranks.add(rank)
            zero_streams.add(stream)
            if i < len(ids) - 1 and tail is not None and tail[0] > i:  # not in row order
                hold = zero = _stop(skipped)
            t = raised.get((stream, rank)) if raised else None
            if t is not None and (starts[i] is None or starts[i] < t):
                pending.append((i, t))
            for r in ranks[i] if later and starts[i] is not None else ():
                key = (streams[i].get(r, "") if type(streams[i]) is dict else streams[i], r)
                raised[key] = max(raised.get(key, -math.inf), starts[i])
            rebuild = rebuild or not first and rank <= tranks[-1]  # a row's ranks out of order
            if zero and not rebuild:  # the record's twin in the template
                record = [carry + row_t[0], f",%d,{stream.replace('%', '%%')}{row_t[1]}", *row_t[2]]
                carry = record.pop()
                tparts += record
                tranks.append(rank)
        if first:
            if len(rows) > 1:
                rows.sort()
            deps.append(tuple(rows))
        elif type(deps[i]) is list:
            deps[i] += rows
        else:  # the row's second record
            deps[i] = [*deps[i], *rows]
            multi.append(i)
    if pass_l and rails:  # the last block lacks a twin pass
        raise _NotHeld
    rails = rails or pass_l  # the first block's, when its twin passes end the file
    if skipped and not _hold(dag, block_start, rails, ahead, zero_ranks, zero_streams):
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


# No record field holds a newline, and no line starts with two (`_read`).
_CUT, _NO_TWIN = "\n", "\n\n"


def _stop(skipped: bool) -> bool:
    """End an attempt to hold: raise _NotHeld once lines were skipped, else
    give False, and the parse goes on row by row."""
    if skipped:
        raise _NotHeld
    return False


def _check_twin_groups(dag: EventDag, gids: set, rail: int, checked: set) -> bool:
    """Whether each group of `gids`, those a block's rail-0 rows name, ends
    in `.l0`, is declared on rail 0 and has a twin on `rail` declared as the
    group moved to `rail`: each member + rail, the same axis, rails {rail}.
    (group, rail) pairs checked are kept in `checked`."""
    groups = dag.groups
    for gid in gids:
        if gid and (gid, rail) not in checked:
            g, t = groups[gid], groups.get(twin(gid, rail))
            if (t is None or gid[-3:] != ".l0" or g.rails_touched != {0} or t.axis != g.axis
                    or t.rails_touched != {rail}
                    or t.members != tuple(m + rail for m in g.members)):
                return False
            checked.add((gid, rail))
    return True


def _hold(dag: EventDag, end: int, rails: int, ahead: Dict[int, List[str]],
          zero_ranks: set, zero_streams: set) -> bool:
    """Finish a held parse whose last block ends at row `end`, which must
    be the last row: check that rail-0 ranks are multiples of `rails` and
    that no spanning row uses a rail-0 stream or is a scale-out collective;
    set `rails`; check that each spanning row names every rail's twin of
    each rail-0 row it names (as `EventDag.twin_deps`), by those rows' twin
    ids, in an order that expands in order; check the ids."""
    ids, index, deps, spans, blocks = dag.ids, dag.index, dag.deps, dag.spans, dag.blocks
    if end != len(ids) or any(rank % rails for rank in zero_ranks):
        return False
    dag.rails = rails
    tails = [str(l) for l in range(1, rails)]
    for i in spans:
        s = dag.streams[i]
        if not zero_streams.isdisjoint(s.values() if isinstance(s, dict) else (s,)) or (
                dag.kind[i] == COLLECTIVE and dag.groups[dag.group[i]].is_scaleout):
            return False
        # Names of rows read after row i are rail-0 names; the rest name twins.
        named = set(ahead.get(i, ()))
        rows = sorted({*deps[i], *(index[n] for n in named if n in index)})
        kept = [d for d in rows if d not in spans]
        if {n for n in named if n not in index} != {ids[d][:-1] + t for d in kept for t in tails}:
            return False
        if i in ahead:
            ahead[i], deps[i] = [], rows
        # The held order maps to the expanded one when the rail-0 rows it
        # names sit in one block and no row it names in a later block.
        if kept and not (bisect.bisect(blocks, kept[0]) == bisect.bisect(blocks, kept[-1])
                         >= bisect.bisect(blocks, rows[-1])):
            return False
    # Sorted, ids with a prefix sit together: a neighbour's is enough.
    order = sorted(ids)
    heads = [x[:-1] if x[-3:] == ".l0" else _CUT for x in order]  # no id starts with `_CUT`
    return not (any(map(str.startswith, order[1:], heads))
                or any(map(str.startswith, order, heads[1:])))


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