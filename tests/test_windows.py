"""Idle-window extraction: hand examples, a brute-force oracle, and the
window-count bound."""

import pytest
from hypothesis import given, settings, strategies as st

from railsim import (EmptyInput, EventDag, EventTiming, InvalidParams,
                     Window, analyze_rail, classify_by_volume, eq1_bound,
                     generate_3d_schedule, segment_phases, simulate, window_cdf)
from railsim.cli import main
from railsim.workload import COLLECTIVE, Event

from conftest import make_params, make_topo


def coll(eid, group, kind, ranks, nbytes=100):
    return Event(id=eid, kind=COLLECTIVE, rank_set=tuple(ranks),
                 streams={r: "dp" for r in ranks}, group=group,
                 coll_kind=kind, bytes=nbytes)


def two_phase_dag():
    """Two single-event phases on rail 0 of a 4x1 topology."""
    from railsim import make_group
    topo = make_topo(num_domains=4, gpus_per_domain=1)
    dag = EventDag()
    dag.groups["g"] = make_group("g", "DP", [0, 1, 2, 3], topo)
    dag.add(coll("ag", "g", "AllGather", [0, 1, 2, 3], nbytes=50))
    dag.add(coll("rs", "g", "ReduceScatter", [0, 1, 2, 3], nbytes=200))
    return dag


# Rows 0 (ag) and 1 (rs) of `two_phase_dag` as trace records, rs's four
# ranks joining at 6.5, 9.0, 8.0 and 7.0 s.
STRAGGLER_TRACE = """\
event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,observed_start_s,observed_end_s
#group,g,DP,0;1;2;3,0
{ag}
{rs}
"""
STRAGGLER_AG = [f"ag,{r},dp,collective,AllGather,g,50,,1.0,5.0" for r in range(4)]
STRAGGLER_RS = [f"rs,{r},dp,collective,ReduceScatter,g,200,,{t},12.0"
                for r, t in enumerate(("6.5", "9.0", "8.0", "7.0"))]


class TestHandExamples:
    def test_simple_window(self):
        dag = two_phase_dag()
        rep = analyze_rail(dag, [1.0, 9.0], [5.0, 12.0], 0)
        assert len(rep.windows) == 1 and not rep.overlaps
        w = rep.windows[0]
        assert (w.start, w.end, w.size) == (5.0, 9.0, 4.0)
        assert w.next_volume_bytes == 200 * 4

    def test_straggler_extends_window(self, tmp_path, capsys):
        # An event's communication start is its slowest rank's join time, so
        # the window runs to 9.0 even though rank 0 joined at 6.5, in either
        # record order.
        for order in (1, -1):
            trace = tmp_path / "straggler.csv"
            trace.write_text(STRAGGLER_TRACE.format(ag="\n".join(STRAGGLER_AG),
                                                    rs="\n".join(STRAGGLER_RS[::order])))
            assert main(["windows", "--trace", str(trace), "--out-dir", str(tmp_path)]) == 0
            rows = (tmp_path / "windows.csv").read_text().splitlines()[1:]
            assert [row.split(",")[:3] for row in rows] == [["0", "5.0", "9.0"]], order

    def test_overlap_reported(self):
        dag = two_phase_dag()
        rep = analyze_rail(dag, [1.0, 5.0], [7.0, 12.0], 0)
        assert not rep.windows
        assert len(rep.overlaps) == 1
        assert rep.overlaps[0].magnitude == pytest.approx(2.0)

    def test_zero_width_window_counts(self):
        dag = two_phase_dag()
        rep = analyze_rail(dag, [1.0, 5.0], [5.0, 12.0], 0)
        assert len(rep.windows) == 1 and rep.windows[0].size == 0.0

    def test_uncovered_rows_skipped(self):
        dag = two_phase_dag()
        assert segment_phases(dag, [1.0, None], [5.0, 12.0], 0)[0].events == (0,)
        assert segment_phases(dag, [1.0, 9.0], [None, 12.0], 0)[0].events == (1,)

    def test_phases_split_on_axis_and_kind(self):
        topo = make_topo()
        dag = generate_3d_schedule(make_params(), topo)
        start = [float(i) for i in range(len(dag))]
        end = [t + 0.5 for t in start]
        phases = segment_phases(dag, start, end, 0)
        for ph in phases:
            kinds = {(dag.groups[dag.group[i]].axis, dag.coll_kind[i]) for i in ph.events}
            assert len(kinds) == 1
        for p1, p2 in zip(phases, phases[1:]):
            assert (p1.axis, p1.kind) != (p2.axis, p2.kind)


class TestRailBuckets:
    def test_built_once_per_dag_and_renewed_by_add(self):
        dag = two_phase_dag()
        buckets = dag.scaleout_by_rail()
        assert buckets == {0: [0, 1]}
        assert dag.scaleout_by_rail() is buckets
        dag.add(coll("ar", "g", "AllReduce", [0, 1, 2, 3]))
        assert dag.scaleout_by_rail() == {0: [0, 1, 2]}

    def test_analysis_reads_only_its_rail(self):
        topo = make_topo()
        dag = generate_3d_schedule(make_params(), topo).expanded()
        timeline = simulate(dag, topo, force_baseline=True).event_times
        seen = set()

        class Recording(list):
            def __getitem__(self, i):
                seen.add(i)
                return super().__getitem__(i)

        start, end = Recording(timeline.start), Recording(timeline.end)
        for rail in range(topo.gpus_per_domain):
            seen.clear()
            assert analyze_rail(dag, start, end, rail).windows
            rails = {r for i in seen for r in dag.groups[dag.group[i]].rails_touched}
            assert rails == {rail}


class TestOracle:
    """Compare against a quadratic brute-force window finder."""

    @staticmethod
    def brute_force(dag, times, rail):
        events = []
        for eid, ev in dag.events.items():
            g = dag.groups.get(ev.group or "")
            if ev.kind == COLLECTIVE and g and g.is_scaleout and rail in g.rails_touched:
                events.append(eid)
        events.sort(key=lambda e: (max(times[e].starts.values())
                                   if times[e].starts else times[e].start, e))
        # Phase boundaries by (axis, kind) change.
        phases, cur = [], []
        prev = None
        for e in events:
            k = (dag.groups[dag.events[e].group].axis, dag.events[e].coll_kind)
            if k != prev and cur:
                phases.append(cur)
                cur = []
            cur.append(e)
            prev = k
        if cur:
            phases.append(cur)
        out = []
        for a, b in zip(phases, phases[1:]):
            s = max(times[e].end for e in a)
            t = min((max(times[e].starts.values()) if times[e].starts
                     else times[e].start) for e in b)
            out.append((s, t))
        return out

    def test_random_timelines(self):
        import random

        rng = random.Random(20240817)
        topo = make_topo()
        # Every event's own random times: the row-by-row DAG.
        dag = generate_3d_schedule(make_params(n_layer=6), topo).expanded()
        for trial in range(50):
            times = {}
            for eid, ev in dag.events.items():
                start = rng.uniform(0, 100)
                starts = {r: start + rng.uniform(0, 2) for r in ev.rank_set}
                times[eid] = EventTiming(
                    start, max(starts.values()) + rng.uniform(0.01, 10), starts)
            rail = trial % topo.gpus_per_domain
            # The caller supplies each row's communication start: its
            # slowest rank's join.
            start = [max(times[eid].starts.values()) for eid in dag.ids]
            end = [times[eid].end for eid in dag.ids]
            rep = analyze_rail(dag, start, end, rail)
            expected = self.brute_force(dag, times, rail)
            got_windows = [(w.start, w.end) for w in rep.windows]
            got_overlaps = [o.magnitude for o in rep.overlaps]
            exp_windows = [(s, t) for s, t in expected if t >= s]
            exp_overlaps = [s - t for s, t in expected if t < s]
            assert got_windows == exp_windows, f"trial {trial}"
            assert got_overlaps == pytest.approx(exp_overlaps)


class TestCdfAndClasses:
    def test_cdf(self):
        ws = [Window(0, "a", "b", 0, s, s, 0) for s in (3.0, 1.0, 2.0, 2.0)]
        assert window_cdf(ws) == [(1.0, 0.25), (2.0, 0.5), (2.0, 0.75), (3.0, 1.0)]

    def test_cdf_accepts_raw_sizes(self):
        assert window_cdf([4.0, 2.0]) == [(2.0, 0.5), (4.0, 1.0)]

    def test_cdf_empty(self):
        with pytest.raises(EmptyInput):
            window_cdf([])

    def test_classify_boundaries(self):
        def w(vol, size=1.0):
            return Window(0, "a", "b", 0, size, size, vol)

        ws = [w(5), w(10), w(15), w(20), w(25)]
        stats = classify_by_volume(ws, [10, 20])
        assert [s.count for s in stats] == [1, 2, 2]
        # Exact edge values land in the upper class.
        assert ws[1].volume_class == stats[1].label
        assert ws[3].volume_class == stats[2].label
        assert stats[0].label == "<10B"
        assert stats[1].label == "[10B,20B)"
        assert stats[2].label == ">=20B"

    def test_classify_stats(self):
        ws = [Window(0, "a", "b", 0, s, s, 50) for s in (2.0, 4.0)]
        stats = classify_by_volume(ws, [100])
        assert stats[0].count == 2
        assert stats[0].mean_size == 3.0
        assert (stats[0].min_size, stats[0].max_size) == (2.0, 4.0)
        assert stats[1].count == 0

    def test_edges_must_increase(self):
        with pytest.raises(InvalidParams):
            classify_by_volume([], [10, 10])


class TestWindowBound:
    def test_reference_values(self):
        # pp=2, 32 layers, 2 microbatches: 4 + 31 + 8 + 124 + 4.
        assert eq1_bound(2, 32, 2, True, True) == 171
        assert eq1_bound(1, 8, 4, False, False) == 4
        assert eq1_bound(2, 8, 4, False, False) == 8

    def test_constant_floor(self):
        assert eq1_bound(1, 1, 1, False, False) == 4

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            eq1_bound(0, 8, 1, False, False)
        with pytest.raises(InvalidParams):
            eq1_bound(4, 3, 1, False, False)
        with pytest.raises(InvalidParams):
            eq1_bound(2, 8, 0, False, False)

    @given(pp=st.integers(1, 16), mult=st.integers(1, 8), m=st.integers(1, 16),
           cp=st.booleans(), ep=st.booleans())
    def test_monotone_in_features(self, pp, mult, m, cp, ep):
        L = pp * mult
        base = eq1_bound(pp, L, m, False, False)
        assert eq1_bound(pp, L, m, cp, ep) >= base
        assert eq1_bound(pp, L, m, True, True) >= eq1_bound(pp, L, m, cp, ep)
