"""Schedule generation, trace round-trips, and the rejection of bad DAGs and
traces by the trace parser and by `simulate`."""

import functools
import hashlib
import io
import os
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from railsim import (CyclicDependency, Event, EventDag, InvalidParams,
                     MissingDependency, NotMember, ParseError, generate_3d_schedule,
                     load_trace, loads_trace, one_f_one_b, save_trace, simulate)

from railsim import trace
from railsim.cli import DEFAULT_SCENARIO, _write_sim_outputs, load_scenario, main
from railsim.workload import GRAD_BYTES_MULTIPLIER, twin

from conftest import (BAD_TRACES, CALIBRATION, HEADER, HELD_BREAKS, PROVISIONED, REACTIVE,
                      make_params, make_topo, perfbench_inputs)


def small_dag(**kw):
    topo = make_topo(**{k: kw.pop(k) for k in ("num_domains", "gpus_per_domain") if k in kw})
    return generate_3d_schedule(make_params(**kw), topo), topo


def trace_text(dag, tmp_path):
    path = tmp_path / "t.csv"
    save_trace(dag, str(path))
    return path.read_text()


COLUMNS = ("ids", "kind", "ranks", "streams", "group", "coll_kind", "bytes",
           "duration", "observed_start", "observed_end", "deps")


def columns(dag):
    return [getattr(dag, name) for name in COLUMNS], dag.groups


def columns_digest(dag):
    h = hashlib.sha256()
    for name in COLUMNS:
        h.update(repr(getattr(dag, name)).encode())
    h.update(repr(sorted((gid, g.axis, g.members, sorted(g.rails_touched))
                         for gid, g in dag.groups.items())).encode())
    return h.hexdigest()


def timed_trace(topo, params, path):
    """Save the generated DAG with its electrical timings as observed times,
    as `railsim gen` does."""
    dag = generate_3d_schedule(params, topo)
    res = simulate(dag, topo, REACTIVE, force_baseline=True)
    dag.observed_start = list(res.event_times.start)
    dag.observed_end = list(res.event_times.end)
    save_trace(dag, path)


@functools.lru_cache(maxsize=None)
def generated_trace(pp, dp, m, gpus=4):
    """The timed trace `gen` writes of pp x dp domains of `gpus` GPUs (the
    rail count), 4 layers and m microbatches."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        timed_trace(make_topo(num_domains=pp * dp, gpus_per_domain=gpus),
                    make_params(pp=pp, dp=dp, tp=gpus, n_layer=4, n_microbatch=m), path)
        with open(path, encoding="utf-8") as f:
            return f.read()


def rows_parse(text):
    """`text` parsed row by row: every record parsed, a row per event."""
    return trace._read(io.StringIO(text), hold=False)


def parse_outcome(parse, text):
    """`parse(text)`'s columns through `expanded()` and its rail count, or
    the type, message and line of its error and 0."""
    try:
        dag = parse(text)
    except (ParseError, MissingDependency, CyclicDependency) as e:
        return (type(e), str(e), getattr(e, "line", None)), 0
    return columns(dag.expanded()), dag.rails


# A twin record's event id: a `.l{rail}` ending, rail 1 or above.
TWIN_ID = re.compile(r"\.l[1-9][0-9]*$")


def twin_records(lines, kind=None):
    """Indices of the twin records in `lines` (of `kind`, if given)."""
    return [k for k, line in enumerate(lines) if not line.startswith("#")
            and TWIN_ID.search(line.split(",")[0]) and kind in (None, line.split(",")[3])]


def edit_field(lines, rnd, candidates, field, change):
    k = rnd.choice(candidates)
    rec = lines[k].split(",")
    rec[field] = change(rec[field])
    lines[k] = ",".join(rec)


def edit_dependency(lines, rnd):
    # A twin's dependency on its rail's twin moved to the rail-0 row.
    k = rnd.choice([k for k in twin_records(lines)
                    if any(TWIN_ID.search(d) for d in lines[k].split(",")[7].split(";"))])
    rec = lines[k].split(",")
    names = rec[7].split(";")
    j = rnd.choice([j for j, d in enumerate(names) if TWIN_ID.search(d)])
    names[j] = TWIN_ID.sub(".l0", names[j])
    rec[7] = ";".join(names)
    lines[k] = ",".join(rec)


def edit_group(lines, rnd):
    # A twin group's members in another order.
    k = rnd.choice([k for k, line in enumerate(lines) if line.startswith("#group,")
                    and TWIN_ID.search(line.split(",")[1]) and ";" in line.split(",")[3]])
    rec = lines[k].split(",")
    rec[3] = ";".join(reversed(rec[3].split(";")))
    lines[k] = ",".join(rec)


def edit_order(lines, rnd):
    # Two twin records of other events and (rank, stream)s swap places.
    twins = set(twin_records(lines))
    k = rnd.choice([k for k in twins if k + 1 in twins
                    and lines[k].split(",", 1)[0] != lines[k + 1].split(",", 1)[0]
                    and lines[k].split(",")[1:3] != lines[k + 1].split(",")[1:3]])
    lines[k], lines[k + 1] = lines[k + 1], lines[k]


def edit_drop(lines, rnd):
    # One record of a twin collective, which keeps its other records.
    records = {}
    for k in twin_records(lines, "collective"):
        records.setdefault(lines[k].split(",", 1)[0], []).append(k)
    del lines[rnd.choice(rnd.choice([ks for ks in records.values() if len(ks) > 1]))]


def edit_tp_name(lines, rnd):
    # One twin drops out of the dependencies of every record of a TP event.
    k = rnd.choice([k for k, line in enumerate(lines) if not line.startswith("#")
                    and line.split(",")[5].startswith("tp.")
                    and any(TWIN_ID.search(d) for d in line.split(",")[7].split(";"))])
    eid, names = lines[k].split(",")[0], lines[k].split(",")[7].split(";")
    dropped = rnd.choice([d for d in names if TWIN_ID.search(d)])
    for k, line in enumerate(lines):
        rec = line.split(",")
        if rec[0] == eid:
            rec[7] = ";".join(d for d in rec[7].split(";") if d != dropped)
            lines[k] = ",".join(rec)


# Edits of a generated trace after which it is no longer rail-symmetric in
# `save_trace`'s layout, and still a valid trace.
EDITS = {
    "twin time": lambda lines, rnd: edit_field(
        lines, rnd, twin_records(lines, "compute"), 9, lambda t: repr(float(t) + 0.5)),
    "twin rank": lambda lines, rnd: edit_field(
        lines, rnd, twin_records(lines, "compute"), 1, lambda r: "10000"),
    "twin dependency": edit_dependency,
    "twin group member": edit_group,
    "twin records reordered": edit_order,
    "twin record dropped": edit_drop,
    "twin name of a TP record dropped": edit_tp_name,
}


# An event id's tail on any rail, rail 0's included.
RAIL_ID = re.compile(r"\.l(0|[1-9][0-9]*)$")


def rail_head(eid):
    """A rail-0 id or a twin's id less its rail number, else None."""
    m = RAIL_ID.search(eid)
    return m and eid[:m.start() + 2]


def records(lines):
    """Each record of `lines` as (index, fields)."""
    return [(k, line.split(",")) for k, line in enumerate(lines)
            if line and not line.startswith("#")]


def rewrite(lines, change):
    """Apply `change(fields)` to every record of `lines`, in place."""
    for k, rec in records(lines):
        change(rec)
        lines[k] = ",".join(rec)


def symmetric_end(lines, rnd):
    # A rail-0 row's end moved later, on each of its twins too.
    head = rail_head(rnd.choice([r[0] for _, r in records(lines) if r[0].endswith(".l0")]))
    delta = rnd.choice([0.5, 1e-6])

    def change(rec):
        if rail_head(rec[0]) == head and rec[9]:
            rec[9] = repr(float(rec[9]) + delta)
    rewrite(lines, change)


def symmetric_stream(lines, rnd):
    # A stream of rail-0 rows renamed in every record, with `%`s the twin
    # template must keep.
    old = rnd.choice(sorted({r[2] for _, r in records(lines) if r[0].endswith(".l0")}))

    def change(rec):
        if rec[2] == old:
            rec[2] = f"{old}%d%%"
    rewrite(lines, change)


def symmetric_id(lines, rnd):
    # A rail-0 row and its twins renamed, in every dependency list too,
    # each list sorted again as `save_trace` sorts it.
    head = rail_head(rnd.choice([r[0] for _, r in records(lines) if r[0].endswith(".l0")]))

    def renamed(eid):
        return "a%" + eid if rail_head(eid) == head else eid

    def change(rec):
        rec[0] = renamed(rec[0])
        if rec[7]:
            rec[7] = ";".join(sorted(renamed(d) for d in rec[7].split(";")))
    rewrite(lines, change)


def symmetric_rank_start(lines, rnd):
    # One rank's record of a rail-0 collective starts earlier, as in
    # `conftest._AR`: the row's start, its latest, and its twins' are kept.
    recs = records(lines)
    rows = {}
    for k, rec in recs:
        if rec[0].endswith(".l0") and rec[3] == "collective":
            rows.setdefault(rec[0], []).append(k)
    k = rnd.choice(rnd.choice([ks for ks in rows.values() if len(ks) > 1]))
    rec = lines[k].split(",")
    before = [float(r[8]) for j, r in recs if j < k and r[1:3] == rec[1:3] and r[8]]
    start = float(rec[8])
    rec[8] = repr((max(before) + start) / 2 if before else start - 0.5)
    lines[k] = ",".join(rec)


# Edits of a generated trace that keep it rail-symmetric in `save_trace`'s
# layout, and valid.
SYMMETRIC_EDITS = {
    "end time": symmetric_end,
    "stream name": symmetric_stream,
    "event id": symmetric_id,
    "one rank's start of a rail-0 collective": symmetric_rank_start,
}


def raise_twin_start(lines, rnd):
    # A twin record starts before the record before it on its (rank, stream).
    recs = records(lines)
    k = rnd.choice([k for k, rec in recs if TWIN_ID.search(rec[0]) and rec[8]
                    and any(j < k and r[1:3] == rec[1:3] for j, r in recs)])
    rec = lines[k].split(",")
    before = max(float(r[8]) for j, r in recs if j < k and r[1:3] == rec[1:3] and r[8])
    rec[8] = repr(before - 1.0)
    lines[k] = ",".join(rec)


def raise_unknown_dependency(lines, rnd):
    k = rnd.choice([k for k, _ in records(lines)])
    rec = lines[k].split(",")
    rec[7] = ";".join([*filter(None, rec[7].split(";")), "nosuch.l1"])
    lines[k] = ",".join(rec)


def raise_end_before_start(lines, rnd):
    k = rnd.choice([k for k, rec in records(lines) if rec[8] and rec[9]])
    rec = lines[k].split(",")
    rec[9] = repr(float(rec[8]) - 1.0)
    lines[k] = ",".join(rec)


def raise_cycle(lines, rnd):
    # The first rail-0 row depends on the last one, and so on every rail.
    zero = [r[0] for _, r in records(lines) if r[0].endswith(".l0")]
    first, last = rail_head(zero[0]), rail_head(zero[-1])

    def change(rec):
        if rail_head(rec[0]) == first:
            rail = rec[0][len(first):]
            rec[7] = ";".join(sorted([*filter(None, rec[7].split(";")), last + rail]))
    rewrite(lines, change)


# Edits after which the row-by-row parse raises (the cycle on most shapes).
RAISING_EDITS = {
    "a twin record starts before its stream": raise_twin_start,
    "an unknown dependency": raise_unknown_dependency,
    "a record ends before it starts": raise_end_before_start,
    "a cycle on every rail": raise_cycle,
}


def edited(text, edit, rnd):
    header, *lines = text.splitlines()
    {**EDITS, **SYMMETRIC_EDITS, **RAISING_EDITS}[edit](lines, rnd)
    out = "\n".join([header, *lines]) + "\n"
    assert out != text
    return out


def unusual_shape(text, rnd):
    """`text`, a trace in row order, with its records in another order and
    other lines between them; returns it and the same records in row order.

    Some records move to a stream of their own on their rank, and the
    dependency names of some events are split over their records.  Records
    are then interleaved, keeping the order of each (rank, stream) and of
    events' first records, so an event's records are split apart and
    reordered.  Group declarations move to anywhere before their first use,
    and comments and blank lines go anywhere after the header."""
    header, *body = text.splitlines()
    groups = [line for line in body if line.startswith("#group,")]
    records = [line.split(",") for line in body if not line.startswith("#")]
    for rec in records:
        if rnd.random() < 0.2:
            rec[2] += "'"  # part of a (rank, stream) keeps its starts in order
    by_event = {}
    for rec in records:
        by_event.setdefault(rec[0], []).append(rec)
    for recs in by_event.values():
        if len(recs) > 1 and recs[0][7] and rnd.random() < 0.5:
            names, split = recs[0][7].split(";"), [[] for _ in recs]
            for name in names:
                split[rnd.randrange(len(recs))].append(name)
            for rec, part in zip(recs, split):
                rec[7] = ";".join(part)
    row_order = list(by_event)
    queues = {}
    for rec in reversed(records):
        queues.setdefault((rec[1], rec[2]), []).append(rec)
    shuffled, seen = [], set()
    while queues:
        heads = [key for key, q in queues.items()
                 if q[-1][0] in seen or q[-1][0] == row_order[len(seen)]]
        key = rnd.choice(heads)
        rec = queues[key].pop()
        if not queues[key]:
            del queues[key]
        seen.add(rec[0])
        shuffled.append(rec)
    lines = [",".join(rec) for rec in shuffled]
    first_use = {}
    for k, rec in enumerate(shuffled):
        first_use.setdefault(rec[5], k)
    inserts = [(rnd.randint(0, first_use.get(g.split(",")[1], len(lines))), g)
               for g in groups]
    inserts += [(rnd.randint(0, len(lines)), rnd.choice(["", "   ", "# a comment"]))
                for _ in range(rnd.randint(0, 4))]
    for pos, line in sorted(inserts, key=lambda ins: -ins[0]):
        lines.insert(pos, line)
    row_text = "\n".join([header, *groups, *(",".join(rec) for rec in records)]) + "\n"
    return "\n".join([header, *lines]) + "\n", row_text


class TestOneFOneB:
    def test_two_stage_two_microbatch(self):
        assert one_f_one_b(2, 0, 2) == [("f", 0), ("f", 1), ("b", 0), ("b", 1)]
        assert one_f_one_b(2, 1, 2) == [("f", 0), ("b", 0), ("f", 1), ("b", 1)]

    def test_last_stage_strictly_alternates(self):
        order = one_f_one_b(4, 3, 6)
        assert order[::2] == [("f", i) for i in range(6)]
        assert order[1::2] == [("b", i) for i in range(6)]

    @given(pp=st.integers(1, 8), stage=st.integers(0, 7), m=st.integers(1, 12))
    def test_schedule_invariants(self, pp, stage, m):
        if stage >= pp:
            return
        order = one_f_one_b(pp, stage, m)
        assert len(order) == 2 * m
        # Every microbatch runs forward before backward, in index order.
        fwd = [i for s, i in order if s == "f"]
        bwd = [i for s, i in order if s == "b"]
        assert fwd == list(range(m)) and bwd == list(range(m))
        pos = {(s, i): k for k, (s, i) in enumerate(order)}
        assert all(pos[("f", i)] < pos[("b", i)] for i in range(m))
        # In-flight microbatches never exceed the 1F1B warmup depth.
        assert max(pos[("f", i)] - 2 * i for i in range(m)) <= min(m, pp - 1 - stage)


class TestGenerator:
    def test_deterministic(self):
        d1, _ = small_dag()
        d2, _ = small_dag()
        assert list(d1.events) == list(d2.events)
        for eid in d1.events:
            assert d1.events[eid] == d2.events[eid]

    def test_sendrecv_count(self):
        for pp, dp, M in ((2, 2, 2), (4, 1, 3), (1, 4, 2)):
            dag, topo = small_dag(num_domains=pp * dp, pp=pp, dp=dp,
                                  n_layer=max(8, pp), n_microbatch=M)
            n_sr = sum(1 for e in dag.events.values() if e.coll_kind == "SendRecv")
            assert n_sr == 2 * M * (pp - 1) * dp * topo.gpus_per_domain

    def test_allgather_gates_first_forward(self):
        dag, _ = small_dag()
        for ev in dag.events.values():
            if ev.id.startswith("f.") and ".j" in ev.id:
                j = ev.id.split(".j")[1].split(".")[0]
                p = ev.id.split(".p")[1].split(".")[0]
                l = ev.id.rsplit(".l", 1)[1]
                assert f"ag.p{p}.j{j}.l{l}" in ev.deps

    def test_reduce_scatter_only_on_last_microbatch(self):
        dag, topo = small_dag(pp=2, dp=2, n_layer=8, n_microbatch=3)
        rs = [e for e in dag.events.values() if e.coll_kind == "ReduceScatter"]
        # One per (stage, layer-in-stage, rail).
        assert len(rs) == 2 * 4 * topo.gpus_per_domain
        assert all(e.bytes == int(round(make_params().bytes_per_layer_param
                                        * GRAD_BYTES_MULTIPLIER))
                   for e in rs)

    def test_pipeline_free_when_pp_is_one(self):
        dag, _ = small_dag(num_domains=2, pp=1, dp=2, n_layer=4)
        assert not any(e.id.startswith(("sra.", "srg.")) for e in dag.events.values())

    def test_uneven_layer_split(self):
        dag, _ = small_dag(pp=2, dp=2, n_layer=7)
        ags_p0 = sum(1 for e in dag.events if e.startswith("ag.p0."))
        ags_p1 = sum(1 for e in dag.events if e.startswith("ag.p1."))
        # 7 layers over 2 stages: 4 then 3, times 4 rails.
        assert (ags_p0, ags_p1) == (16, 12)

    def test_generated_dag_is_valid(self, tmp_path):
        dag, topo = small_dag(pp=2, dp=2, n_layer=5, n_microbatch=3)
        assert sorted(simulate(dag, topo).event_times) == sorted(dag.expanded().ids)
        assert len(loads_trace(trace_text(dag, tmp_path))) == len(dag)

    def test_rejects_mismatched_degrees(self):
        topo = make_topo(num_domains=4, gpus_per_domain=4)
        with pytest.raises(InvalidParams):
            generate_3d_schedule(make_params(pp=3, dp=2), topo)
        with pytest.raises(InvalidParams):
            generate_3d_schedule(make_params(tp=2), topo)
        with pytest.raises(InvalidParams):
            generate_3d_schedule(make_params(pp=2, n_layer=1), topo)

    @settings(max_examples=20, deadline=None)
    @given(pp=st.integers(1, 4), dp=st.integers(1, 4), m=st.integers(1, 4),
           n_layer=st.integers(4, 12))
    def test_random_shapes_validate(self, pp, dp, m, n_layer):
        if pp * dp < 2 or n_layer < pp:
            return
        dag, topo = small_dag(num_domains=pp * dp, pp=pp, dp=dp,
                              n_layer=n_layer, n_microbatch=m)
        assert sorted(simulate(dag, topo).event_times) == sorted(dag.expanded().ids)


class TestOneRailHeld:
    """A generated DAG holds rail 0's rows and the TP rows; its expansion is
    the row-by-row DAG, and the readers that cover every rail read the held
    rows without expanding them."""

    # sha256 of the expanded columns, pinned from the generator that built
    # every row: (pp, dp, G, n_layer, microbatches, calibrated).
    EXPANDED = {
        (2, 3, 2, 6, 3, False): "5735f422ad74c5ee89b902b9021992529c3f88bf0358f0726a78f8ac4441eee7",
        (4, 1, 4, 8, 3, True): "3c2066058cd28381a6c1d3fea357a938bf07e6cddd98ce2a22765e4f36fd46fd",
        (2, 2, 12, 4, 2, False): "3703d493968a338a03669964111dab45674bd2f7ade19e14d2645afd05c47fd3",
        (4, 4, 8, 32, 8, True): "3eaeced6cc1b147d3005b42cf07098eaf96ef8ed7f40d3bec7ccd1b451a9ed87",
    }

    @staticmethod
    def generated(pp, dp, gpus, n_layer, m, calibrated):
        topo = make_topo(num_domains=pp * dp, gpus_per_domain=gpus)
        params = make_params(pp=pp, dp=dp, tp=gpus, n_layer=n_layer, n_microbatch=m,
                             **(CALIBRATION if calibrated else {}))
        return generate_3d_schedule(params, topo)

    @pytest.mark.parametrize("shape", EXPANDED)
    def test_expansion_is_the_row_by_row_dag(self, shape):
        dag = self.generated(*shape)
        full = dag.expanded()
        assert columns_digest(full) == self.EXPANDED[shape]
        assert full.expanded() is full and full.rails == 1
        assert len(dag) == len(dag.events) == len(full) == len(full.ids) > len(dag.ids)
        # The held rows by id, each row's twins in the text order of their
        # rails, as `timeline.csv` lists them.
        ids, rails = dag.ids, sorted(range(dag.rails), key=str)
        assert [twin(ids[i], l) for i in sorted(range(len(ids)), key=ids.__getitem__)
                for l in ((0,) if i in dag.spans else rails)] == sorted(full.ids)

    def test_every_rail_read_without_expanding(self):
        dag = self.generated(2, 2, 12, 4, 2, False)
        full = dag.expanded()
        assert list(dag.events) == full.ids
        assert [(i, l) for i, l, _ in dag.twin_rows()] == \
            [dag.locate(eid) for eid in full.ids]
        for eid in full.ids:
            assert dag.events[eid] == full.events[eid]
        for eid in ("ar.k0.l12", "ar.k0.l01", "ar.k0.l", "tar.f.p0.q0.m0.l1", "nope"):
            with pytest.raises(KeyError):
                dag.locate(eid)
            assert eid not in dag.events

    def test_add_refuses_a_held_dag(self):
        # Adding would renumber the held rows; the row-by-row DAG takes it.
        dag = self.generated(2, 3, 2, 6, 3, False)
        held = columns_digest(dag)
        full = dag.expanded()
        with pytest.raises(ValueError, match=r"dag\.expanded\(\)"):
            dag.add(dag.events["prep.p1.q2.l1"])
        assert columns_digest(dag) == held and dag.rails == 2
        assert full.add(full.events["prep.p1.q2.l1"]) == full.index["prep.p1.q2.l1"]
        assert list(dag.events.items()) == list(full.events.items())


class TestColumns:
    def test_generator_and_parser_build_no_event_records(self, monkeypatch, tmp_path):
        built = []
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["id"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)
        dag, _ = small_dag()
        path = tmp_path / "t.csv"
        save_trace(dag, str(path))
        back = load_trace(str(path))
        assert built == []
        assert back.events["ar.k0.l0"].deps  # looking a row up builds one
        assert built == ["ar.k0.l0"]

    def test_add_takes_rows_in_any_order_and_replaces_by_id(self):
        dag = EventDag()
        dag.add(Event("b", "compute", (0,), {0: "compute"}, deps=("a",), duration=1.0))
        dag.add(Event("a", "compute", (0,), {0: "compute"}, duration=2.0))
        topo = make_topo(kind="electrical")
        times = simulate(dag, topo).event_times
        assert (times["a"].end, times["b"].start, times["b"].end) == (2.0, 2.0, 3.0)
        a = dag.events["a"]
        a.duration = 0.5
        assert dag.add(a) == 1
        assert list(dag.events) == ["b", "a"]
        assert dag.events["b"].deps == ("a",)
        assert simulate(dag, topo).event_times["b"].end == 1.5

    def test_add_refuses_a_repeated_rank(self):
        # A rank listed twice would count twice in a window's volume and be
        # written as two records that the parser reads back as one.
        dag = EventDag()
        dag.add(Event("a", "compute", (0,), {0: "compute"}, duration=1.0))
        row = columns_digest(dag)
        for eid in ("sr", "a"):  # a new row, and one in place of a row
            with pytest.raises(InvalidParams, match=rf"event {eid} lists rank 1 twice"):
                dag.add(Event(eid, "collective", (0, 1, 1), {0: "pp", 1: "pp"},
                              group="pp", coll_kind="SendRecv", bytes=100))
            assert columns_digest(dag) == row


class TestValidation:
    """Each bad DAG is rejected by `simulate` and, saved as a trace, by the
    parser (or, where the parser cannot tell, by simulating what it read)."""

    def test_missing_dependency(self, tmp_path):
        dag, topo = small_dag()
        dag = dag.expanded()  # `add` refuses a DAG that holds one rail
        ev = next(iter(dag.events.values()))
        ev.deps = ev.deps + ("nonexistent",)
        dag.add(ev)
        with pytest.raises(MissingDependency, match="unknown event nonexistent"):
            simulate(dag, topo)
        with pytest.raises(MissingDependency, match="unknown event nonexistent"):
            loads_trace(trace_text(dag, tmp_path))

    def test_cycle_detected(self, tmp_path):
        dag, topo = small_dag()
        dag = dag.expanded()  # `add` refuses a DAG that holds one rail
        # The last event timed, and a root it transitively depends on.
        last = dag.events[list(simulate(dag, topo).event_times)[-1]]
        first = last
        while first.deps:
            first = dag.events[first.deps[0]]
        first.deps = first.deps + (last.id,)
        dag.add(first)
        with pytest.raises(CyclicDependency):
            simulate(dag, topo)
        with pytest.raises(CyclicDependency):
            loads_trace(trace_text(dag, tmp_path))

    def test_unknown_group(self, tmp_path):
        dag, topo = small_dag()
        dag = dag.expanded()  # `add` refuses a DAG that holds one rail
        ev = next(e for e in dag.events.values() if e.kind == "collective")
        ev.group = "no-such-group"
        dag.add(ev)
        with pytest.raises(NotMember, match="unknown group no-such-group"):
            simulate(dag, topo)
        with pytest.raises(ParseError, match="unknown group id 'no-such-group'"):
            loads_trace(trace_text(dag, tmp_path))

    def test_membership_violation(self, tmp_path):
        dag, topo = small_dag()
        dag = dag.expanded()  # `add` refuses a DAG that holds one rail
        ev = next(e for e in dag.events.values() if e.kind == "collective")
        ev.rank_set = ev.rank_set[:-1]
        dag.add(ev)
        with pytest.raises(NotMember, match=f"collective {ev.id} ranks"):
            simulate(dag, topo)
        back = loads_trace(trace_text(dag, tmp_path))
        with pytest.raises(NotMember, match=f"collective {ev.id} ranks"):
            simulate(back, topo)

    def test_stream_order_violation(self, tmp_path):
        dag, _ = small_dag()
        dag = dag.expanded()  # `add` refuses a DAG that holds one rail
        # Two compute events on the same rank and stream with inverted
        # observed starts.
        seen = {}
        bad = None
        for ev in dag.events.values():
            if ev.kind != "compute":
                continue
            r = ev.rank_set[0]
            if r in seen:
                seen[r].observed_start = 5.0
                ev.observed_start = 1.0
                dag.add(seen[r])
                dag.add(ev)
                bad = ev
                break
            seen[r] = ev
        assert bad is not None
        text = trace_text(dag, tmp_path)
        line = next(k for k, rec in enumerate(text.splitlines(), start=1)
                    if rec.startswith(bad.id + ","))
        with pytest.raises(ParseError, match=f"{bad.id} starts at 1.0") as exc:
            loads_trace(text)
        assert exc.value.line == line


class TestTrace:
    def test_round_trip_bytes_identical(self, tmp_path):
        dag, _ = small_dag(pp=2, dp=2, n_layer=6, n_microbatch=2)
        dag.observed_start = [0.25 * t for t in range(len(dag))]
        dag.observed_end = [0.25 * t + 0.1 for t in range(len(dag))]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trace(dag, str(p1))
        save_trace(load_trace(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_structure(self, tmp_path):
        dag, topo = small_dag()
        path = tmp_path / "t.csv"
        save_trace(dag, str(path))
        back = load_trace(str(path))
        assert set(back.events) == set(dag.events)
        assert set(back.groups) == set(dag.groups)
        for eid, ev in dag.events.items():
            got = back.events[eid]
            assert got.rank_set == tuple(sorted(ev.rank_set))
            assert got.bytes == ev.bytes
            assert got.coll_kind == ev.coll_kind
        assert sorted(simulate(back, topo).event_times) == sorted(dag.expanded().ids)

    def test_multi_record_event(self, tmp_path):
        # c's dependencies are split over its three records: a and e
        # explicitly, b as rank 1's compute-stream tail; c itself and an
        # empty id are dropped.
        text = (HEADER + "#group,g,DP,0;1;2,0\n"
                "a,0,compute,compute,,,0,,0.0,1.0\n"
                "b,1,compute,compute,,,0,,0.5,2.0\n"
                "e,2,compute,compute,,,0,,0.0,0.5\n"
                "c,2,dp,collective,AllReduce,g,64,a,,\n"
                "c,0,dp,collective,AllReduce,g,64,c;;e;a,,\n"
                "c,1,compute,collective,AllReduce,g,64,,,\n"
                "d,0,dp,compute,,,0,,3.0,4.5\n")
        want = Event(id="c", kind="collective", rank_set=(0, 1, 2),
                     streams={2: "dp", 0: "dp", 1: "compute"}, group="g",
                     coll_kind="AllReduce", bytes=64, deps=("a", "b", "e"))
        dag = loads_trace(text)
        assert list(dag.events["c"].streams) == [2, 0, 1]  # record order
        path = tmp_path / "t.csv"
        save_trace(dag, str(path))
        for got in (dag, load_trace(str(path))):
            assert got.events["c"] == want
            assert got.events["d"].deps == ("c",)
            assert got.events["b"].duration == 1.5

    # (pp, dp, microbatches) of the generated traces the shuffle starts from.
    SHUFFLED_SHAPES = [(1, 2, 1), (2, 1, 2), (2, 2, 2), (1, 4, 1)]

    # Not shrunk: a smaller shuffle reads no easier, and shrinking one takes
    # minutes.
    @settings(max_examples=40, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(shape=st.sampled_from(SHUFFLED_SHAPES), edit=st.sampled_from([None, *EDITS]),
           rnd=st.randoms(use_true_random=False))
    def test_unusual_shapes_parse_as_row_order(self, shape, edit, rnd):
        # A generated trace, or one edited out of rail symmetry, loads as
        # its row-by-row parse, shuffled or not.
        base = generated_trace(*shape)
        if edit is not None:
            base = edited(base, edit, rnd)
        dag = loads_trace(base)
        assert dag.rails == (4 if edit is None else 1)
        assert columns(dag.expanded()) == columns(rows_parse(base))
        text, row_text = unusual_shape(base, rnd)
        assert columns(loads_trace(text).expanded()) == columns(loads_trace(row_text).expanded())

    @pytest.mark.parametrize("shape", SHUFFLED_SHAPES)
    def test_shuffled_shapes_name_dependencies_before_their_event(self, shape):
        # The generator's forward references, which the shuffle keeps.
        dag = rows_parse(generated_trace(*shape))
        assert any(d > i for i, ds in enumerate(dag.deps) for d in ds)

    def test_generated_trace_columns_pinned(self, tmp_path):
        # The 16x8 shape of 18,960 events with the benchmark's calibration;
        # pinned before the parser skipped repeated records.
        path = str(tmp_path / "t.csv")
        timed_trace(make_topo(num_domains=16, gpus_per_domain=8, delay=0.025),
                    make_params(pp=4, dp=4, tp=8, n_layer=32, n_microbatch=8, **CALIBRATION),
                    path)
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == (
                "109faec1ab279d6f5242a386113c1f0b0c40fe84fc018e4893d612a13134fa7d")
        dag = load_trace(path)
        assert len(dag) == 18_960 and dag.rails == 8 and len(dag.ids) == 2_594
        with open(path, encoding="utf-8") as f:
            rows = rows_parse(f.read())
        for full in (rows, dag.expanded()):
            assert columns_digest(full) == (
                "3da63b52a2789b087ec37321e782f68a6bac34eae0834a17495031183ea666b4")

    @pytest.mark.parametrize("rank,message", [
        ("x", "malformed numeric field"),
        ("1", "c starts at 1.0, before an earlier record on rank 1 stream 'dp'")])
    def test_repeated_record_reports_its_own_line(self, rank, message):
        # Line 5 repeats line 4's record of c on another rank.
        text = (HEADER + "#group,g,DP,0;1,0\n"
                "a,1,dp,compute,,,0,,5.0,6.0\n"
                "c,0,dp,collective,AllGather,g,100,,1.0,2.0\n"
                f"c,{rank},dp,collective,AllGather,g,100,,1.0,2.0\n")
        with pytest.raises(ParseError, match=message) as exc:
            loads_trace(text)
        assert exc.value.line == 5

    def test_cycle_through_a_later_record(self):
        # c's second record follows d on rank 1's stream, and d depends on c;
        # c also depends on the earlier a.
        text = (HEADER + "#group,g,DP,0;1,0\n"
                "a,0,dp,compute,,,0,,,\n"
                "c,0,dp,collective,AllGather,g,100,,,\n"
                "d,1,dp,compute,,,0,c,,\n"
                "c,1,dp,collective,AllGather,g,100,,,\n")
        with pytest.raises(CyclicDependency):
            loads_trace(text)
        assert loads_trace(text.replace("d,1,dp", "d,1,compute")).events["c"].deps == ("a",)

    def test_parse_error_carries_line_number(self):
        text = ("event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,"
                "observed_start_s,observed_end_s\n"
                "e1,0,compute,compute,,,0,,,\n"
                "e2,not_a_rank,compute,compute,,,0,,,\n")
        with pytest.raises(ParseError) as exc:
            loads_trace(text)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            loads_trace("wrong,header\n")
        assert exc.value.line == 1

    def test_collective_needs_known_group(self):
        text = ("event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,"
                "observed_start_s,observed_end_s\n"
                "c1,0,dp,collective,AllReduce,ghost,8,,,\n")
        with pytest.raises(ParseError):
            loads_trace(text)

    def test_cycle_rejected(self):
        text = ("event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,"
                "observed_start_s,observed_end_s\n"
                "e1,0,compute,compute,,,0,e2,,\n"
                "e2,0,other,compute,,,0,e1,,\n")
        with pytest.raises(CyclicDependency):
            loads_trace(text)

    def test_group_declared_twice(self):
        text = (HEADER + "#group,g,DP,0;2,0\n#group,g,DP,0;4,0\n"
                "c,0,dp,collective,AllGather,g,100,,,\n")
        with pytest.raises(ParseError, match="group g declared twice") as exc:
            loads_trace(text)
        assert exc.value.line == 3

    def test_record_ends_before_it_starts(self):
        text = HEADER + "a,0,compute,compute,,,0,,0.0,1.0\na,1,compute,compute,,,0,,2.0,1.0\n"
        with pytest.raises(ParseError, match="a ends at 1.0, before its start 2.0") as exc:
            loads_trace(text)
        assert exc.value.line == 3
        assert loads_trace(HEADER + "a,0,compute,compute,,,0,,1.0,1.0\n").events["a"].duration == 0.0

    @pytest.mark.parametrize("field,value", [(3, "compute"), (4, "AllReduce"),
                                             (5, "h")])
    def test_records_must_agree(self, field, value):
        # A second record of c that differs in kind, coll_kind or group_id.
        second = "c,2,dp,collective,AllGather,g,100,,,".split(",")
        second[field] = value
        text = (HEADER + "#group,g,DP,0;2,0\n#group,h,DP,0;2,0\n"
                "c,0,dp,collective,AllGather,g,100,,,\n" + ",".join(second) + "\n")
        with pytest.raises(ParseError, match="record of c disagrees") as exc:
            loads_trace(text)
        assert exc.value.line == 5

    def test_compute_records_in_any_order(self):
        # a's observed start and end are the latest over its two records, so
        # its duration does not depend on which record comes first.
        first = "a,0,compute,compute,,,0,,0.0,1.0\n"
        second = "a,1,compute,compute,,,0,,0.0,3.0\n"
        dags = [loads_trace(HEADER + first + second), loads_trace(HEADER + second + first)]
        assert columns(dags[0]) == columns(dags[1])
        assert (dags[0].duration, dags[0].observed_start, dags[0].observed_end) == \
            ([3.0], [0.0], [3.0])

    def test_records_may_differ_in_times_and_bytes(self):
        dag = loads_trace(HEADER + "#group,g,DP,0;2,0\n"
                          "c,0,dp,collective,AllGather,g,100,,0.0,1.0\n"
                          "c,2,dp,collective,AllGather,g,200,,0.5,1.5\n")
        # Bytes are the first record's; the observed start and end are the
        # latest over the records, so the start is the slowest rank's join.
        ev = dag.events["c"]
        assert (ev.bytes, ev.observed_start, ev.observed_end, ev.rank_set) == \
            (100, 0.5, 1.5, (0, 2))

    def test_collective_duration_in_any_order(self):
        # One rail-1 AllReduce record's end moved by 0.5 s: the collective's
        # duration is its latest end minus its latest start whichever of its
        # records comes first, as a compute event's is.
        header, *lines = generated_trace(2, 2, 2).splitlines()
        ks = [k for k, line in enumerate(lines) if line.startswith("ar.k0.l1,")]
        rec = lines[ks[-1]].split(",")
        rec[9] = repr(float(rec[9]) + 0.5)
        lines[ks[-1]] = ",".join(rec)
        orders = [ks, ks[::-1], *(random.Random(seed).sample(ks, len(ks)) for seed in range(4))]
        durations = set()
        for order in orders:
            moved = list(lines)
            for k, source in zip(ks, order):
                moved[k] = lines[source]
            ev = loads_trace("\n".join([header, *moved]) + "\n").events["ar.k0.l1"]
            assert ev.duration == ev.observed_end - ev.observed_start
            durations.add(ev.duration)
        assert len(durations) == 1 and durations.pop() > 0.5

    def test_stream_order_skips_records_without_a_start(self):
        # b has no observed start; c is checked against a's.
        text = (HEADER + "a,0,compute,compute,,,0,,1.0,2.0\n"
                "b,0,compute,compute,,,0,,,\n"
                "c,0,compute,compute,,,0,,0.5,3.0\n")
        with pytest.raises(ParseError) as exc:
            loads_trace(text)
        assert exc.value.line == 4
        assert loads_trace(text.replace("0.5,3.0", "2.5,3.0")).events["c"].deps == ("b",)


class TestHeldTrace:
    """A trace that `save_trace` wrote of a held DAG loads held, as rail 0's
    rows and the TP rows, and its expansion is the row-by-row parse; a trace
    that is not rail-symmetric in that layout loads row by row."""

    @staticmethod
    def held(text, rails):
        dag = loads_trace(text)
        assert dag.rails == rails
        assert len(dag.ids) == len(rows_parse(text).ids) if rails == 1 else len(dag.ids) < len(dag)
        assert columns(dag.expanded()) == columns(rows_parse(text))
        return dag

    def test_shipped_scenario(self, tmp_path):
        path = tmp_path / "t.csv"
        assert main(["gen", "--out", str(path)]) == 0
        text = path.read_text()
        dag = self.held(text, load_scenario(DEFAULT_SCENARIO).topology.gpus_per_domain)
        assert trace_text(dag, tmp_path) == text

    # (pp, dp, G, n_layer, microbatches); with G=12, `.l10` sorts before `.l2`.
    @pytest.mark.parametrize("shape", [(2, 2, 12, 4, 2), (2, 2, 1, 4, 2), (2, 3, 2, 6, 3),
                                       (4, 1, 4, 8, 3)])
    def test_generated_shapes(self, shape, tmp_path):
        pp, dp, gpus, n_layer, m = shape
        path = str(tmp_path / "t.csv")
        timed_trace(make_topo(num_domains=pp * dp, gpus_per_domain=gpus),
                    make_params(pp=pp, dp=dp, tp=gpus, n_layer=n_layer, n_microbatch=m), path)
        text = Path(path).read_text()
        dag = self.held(text, gpus)
        assert trace_text(dag, tmp_path) == text
        # The twin records written from one template per block are the
        # records of the expanded rows, each written on its own.
        assert trace_text(dag.expanded(), tmp_path) == text

    def test_shape_space_sample(self, tmp_path):
        # Every 400th shape of the benchmark's shape space, untimed traces
        # included.
        for k, shape in enumerate(perfbench_inputs().shape_space()[::400]):
            topo = make_topo(num_domains=shape.pp * shape.dp, gpus_per_domain=shape.gpus,
                             nic_ports=shape.nic_ports)
            dag = generate_3d_schedule(make_params(
                pp=shape.pp, dp=shape.dp, tp=shape.gpus, n_layer=shape.n_layer,
                n_microbatch=shape.n_microbatch, **CALIBRATION), topo)
            if k % 2:
                res = simulate(dag, topo, REACTIVE, force_baseline=True)
                dag.observed_start = list(res.event_times.start)
                dag.observed_end = list(res.event_times.end)
            text = trace_text(dag, tmp_path)
            self.held(text, shape.gpus)
            assert trace_text(dag.expanded(), tmp_path) == text

    @pytest.mark.parametrize("gpus", [4, 12])
    def test_percent_in_names(self, gpus, tmp_path):
        # `%`, `%d` and `%%` in event ids, streams, coll_kinds and group ids,
        # which the twin template must keep as text; with G=12 the rail
        # tails have one and two digits.
        topo = make_topo(num_domains=4, gpus_per_domain=gpus)
        dag = generate_3d_schedule(make_params(tp=gpus, n_layer=4), topo)
        res = simulate(dag, topo, REACTIVE, force_baseline=True)
        dag.observed_start, dag.observed_end = list(res.event_times.start), list(res.event_times.end)

        def odd(name):
            return name and f"%d%%{name[0]}%{name[1:]}"

        dag.ids = [odd(eid) for eid in dag.ids]
        dag.index = {eid: i for i, eid in enumerate(dag.ids)}
        dag.streams = [{r: odd(n) for r, n in s.items()} if isinstance(s, dict) else odd(s)
                       for s in dag.streams]
        dag.coll_kind = [odd(ck) for ck in dag.coll_kind]
        dag.group = [odd(gid) for gid in dag.group]
        dag.groups = {odd(gid): replace(g, id=odd(gid)) for gid, g in dag.groups.items()}
        text = trace_text(dag, tmp_path)
        assert "\n%d%%f%.p0.q0.m0.j0.l1,1,%d%%c%ompute,compute,,,0,%d%%a%g.p0.j0.l1;" in text
        assert ",collective,%d%%A%llGather,%d%%d%p.p0.l1," in text
        held = self.held(text, gpus)
        assert trace_text(held, tmp_path) == text
        assert trace_text(dag.expanded(), tmp_path) == text

    @pytest.mark.parametrize("policy", [REACTIVE, PROVISIONED])
    def test_simulated_as_its_row_by_row_parse(self, policy, tmp_path):
        text = generated_trace(2, 2, 2)
        topo = make_topo(delay=0.02)
        for name, dag in (("held", loads_trace(text)), ("rows", rows_parse(text))):
            _write_sim_outputs(simulate(dag, topo, policy), str(tmp_path / name))
        for name in ("timeline.csv", "reconfig.csv"):
            assert (tmp_path / "held" / name).read_bytes() == \
                (tmp_path / "rows" / name).read_bytes()

    @pytest.mark.parametrize("body,rails", HELD_BREAKS.values(), ids=HELD_BREAKS.keys())
    def test_held_form_condition(self, body, rails):
        # Held on `rails` rails, loaded row by row (1) or rejected (0), and
        # always as the row-by-row parse reads it.
        text = HEADER + body
        assert parse_outcome(loads_trace, text) == (parse_outcome(rows_parse, text)[0], rails)

    # (pp, dp, microbatches, G) of the traces the differential check edits:
    # 2 to 4 rails.
    EDITED_SHAPES = [(1, 2, 1, 2), (2, 1, 2, 3), (2, 2, 1, 4), (1, 3, 2, 2)]

    # The example count is the Hypothesis profile's: tier-1 runs the default
    # profile's 100; CI selects `ci` (see conftest), ten times as many.
    @settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(shape=st.sampled_from(EDITED_SHAPES),
           edit=st.sampled_from([*SYMMETRIC_EDITS, *RAISING_EDITS, *EDITS]),
           rnd=st.randoms(use_true_random=False))
    def test_random_edit_loads_as_row_order(self, shape, edit, rnd):
        # The trace differential check: a randomly edited trace loads as its
        # row-by-row parse reads it, or raises its error; one edited the
        # same on every rail is still held.
        text = edited(generated_trace(*shape), edit, rnd)
        held, rails = parse_outcome(loads_trace, text)
        assert held == parse_outcome(rows_parse, text)[0]
        assert rails > 1 if edit in SYMMETRIC_EDITS else True

    @pytest.mark.parametrize("edit", EDITS)
    def test_edit_loads_row_by_row(self, edit):
        for seed in range(3):
            text = edited(generated_trace(2, 2, 2), edit, random.Random(seed))
            assert columns(loads_trace(text)) == columns(rows_parse(text))
            assert loads_trace(text).rails == 1

    def test_errors_come_from_the_row_by_row_parse(self):
        # A twin record that starts before the record before it on its
        # (rank, stream): the message and line are the row-by-row parse's.
        header, *lines = generated_trace(2, 2, 2).splitlines()
        k = next(k for k in twin_records(lines, "compute")
                 if lines[k].startswith("f.") and ".m1." in lines[k])
        rec = lines[k].split(",")
        rec[8] = "0.0"
        lines[k] = ",".join(rec)
        text = "\n".join([header, *lines]) + "\n"
        with pytest.raises(ParseError, match=f"{rec[0]} starts at 0.0") as held:
            loads_trace(text)
        with pytest.raises(ParseError) as rows:
            rows_parse(text)
        assert (str(held.value), held.value.line) == (str(rows.value), rows.value.line)
        assert held.value.line == k + 2

    def test_twin_outside_the_topology(self):
        # Three rails held; the rank count 8 is no multiple of 3, so the
        # compile gate reads the twins of a row whose ranks are near the top.
        dag = self.held(HEADER + BAD_TRACES["a twin's rank outside the topology"], 3)
        topo = make_topo(num_domains=4, gpus_per_domain=2)
        for got in (dag, dag.expanded()):
            with pytest.raises(NotMember, match=r"event b\.l2 names ranks \[8\]"):
                simulate(got, topo)
