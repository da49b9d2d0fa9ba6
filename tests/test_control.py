"""The control plane: first-iteration profiling, the shim step and
speculative provisioning as the circuit engine runs them, and the
port-level circuit controller."""

import pytest
from hypothesis import example, given, settings, strategies as st

from railsim import (Controller, DegreeInfeasible, EventDag, generate_3d_schedule,
                     loads_trace, make_group, profile_iteration, simulate)
from railsim.fabric import Prepared
from railsim.workload import COLLECTIVE, COMPUTE, Event

import scoreboard
from conftest import HEADER, PROVISIONED, REACTIVE, make_params, make_topo


def rail_group(gid, members, topo, axis="DP"):
    return make_group(gid, axis, members, topo)


def coll(eid, group, ranks, kind="AllGather", nbytes=1000, deps=()):
    return Event(id=eid, kind=COLLECTIVE, rank_set=tuple(ranks),
                 streams={r: "dp" for r in ranks}, group=group,
                 coll_kind=kind, bytes=nbytes, deps=tuple(deps))


@pytest.fixture
def topo():
    # 4 domains x 2 GPUs, 2-port NICs, 10 ms switching.
    return make_topo(num_domains=4, gpus_per_domain=2, nic_ports=2, delay=0.01)


@pytest.fixture
def rail0_groups(topo):
    # Three rings on rail 0 (ranks 0, 2, 4, 6) plus a pair.
    return {
        "a": rail_group("a", [0, 2, 4], topo),
        "b": rail_group("b", [2, 4, 6], topo),
        "c": rail_group("c", [0, 2, 4, 6], topo, axis="SYNC"),
        "pair": rail_group("pair", [0, 6], topo, axis="PP"),
    }


def grant(c, gid, t):
    """Every member rank of `gid` requests it at `t`; one controller scan."""
    c.request(gid, {r: t for r in c.groups[gid].members}, False)
    return c.scan(t, protected=set())


def two_phase_dag(topo):
    """Rail 0: e1 and e2 on a=[0,2] 5 ms apart, then 50 ms of compute, then
    e3 on b=[4,6] and e4 on c=[0,6] together.  Profiled phases: {a} (e1, e2),
    then {b, c} (e3, e4)."""
    dag = EventDag()
    for gid, members in (("a", [0, 2]), ("b", [4, 6]), ("c", [0, 6])):
        dag.groups[gid] = rail_group(gid, members, topo)

    def compute(eid, duration, dep):
        return Event(id=eid, kind=COMPUTE, rank_set=(0,), streams={0: "compute"},
                     deps=(dep,), duration=duration)

    dag.add(coll("e1", "a", [0, 2], nbytes=10**6))
    dag.add(compute("w1", 0.005, "e1"))
    dag.add(coll("e2", "a", [0, 2], nbytes=10**6, deps=["w1"]))
    dag.add(compute("w2", 0.05, "e2"))
    dag.add(coll("e3", "b", [4, 6], nbytes=10**6, deps=["w2"]))
    dag.add(coll("e4", "c", [0, 6], nbytes=10**6, deps=["w2"]))
    return dag


class TestShim:
    def test_request_then_serve(self, topo):
        # e1 finds no circuits and requests a; e2 finds a's ring still up and
        # starts at its barrier without a second request.
        res = simulate(two_phase_dag(topo), topo, REACTIVE)
        assert [e.group for e in res.reconfig_log].count("a") == 1
        e2 = res.event_times["e2"]
        assert e2.start == max(e2.starts.values())


class TestProfiler:
    def make_timeline(self, topo):
        dag = generate_3d_schedule(make_params(), topo)
        start = [float(i) for i in range(len(dag))]
        return dag, start, [t + 0.4 for t in start]

    def test_idempotent(self):
        topo = make_topo()
        dag, start, end = self.make_timeline(topo)
        s1 = profile_iteration(dag, start, end)
        s2 = profile_iteration(dag, start, end)
        assert s1 == s2

    def test_phases_cover_all_rail_collectives(self):
        topo = make_topo()
        dag, start, end = self.make_timeline(topo)
        sched = profile_iteration(dag, start, end)
        seen = [dag.ids[i] for ph in sched[0] for i in ph.events]
        expected = [eid for eid, ev in dag.events.items()
                    if ev.kind == COLLECTIVE
                    and dag.groups[ev.group].is_scaleout
                    and 0 in dag.groups[ev.group].rails_touched]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))

    def test_overlapping_groups_share_a_phase(self, topo):
        dag = EventDag()
        dag.groups["a"] = rail_group("a", [0, 2], topo)
        dag.groups["b"] = rail_group("b", [4, 6], topo)
        dag.groups["d"] = rail_group("d", [0, 4], topo)
        dag.add(coll("e1", "a", [0, 2]))
        dag.add(coll("e2", "b", [4, 6]))  # overlaps e1 in time
        dag.add(coll("e3", "d", [0, 4]))  # later, new group: new phase
        sched = profile_iteration(dag, [0.0, 1.0, 5.0], [2.0, 3.0, 6.0])
        assert [ph.events for ph in sched[0]] == [(0, 1), (2,)]  # e1, e2 | e3


class TestProvision:
    def spec_log(self, topo):
        res = simulate(two_phase_dag(topo), topo, PROVISIONED)
        return res, [e for e in res.reconfig_log if e.speculative]

    def test_fires_on_last_event_of_phase(self, topo):
        res, spec = self.spec_log(topo)
        assert [e.group for e in spec] == ["b", "c"]
        assert all(e.time == res.event_times["e2"].end for e in spec)
        assert res.event_times["e2"].end == pytest.approx(0.015042, abs=1e-12)

    def test_silent_mid_phase(self, topo):
        # e1 is not the last event of its phase: it triggers no request.
        res, spec = self.spec_log(topo)
        assert res.event_times["e1"].end not in {e.time for e in spec}

    def test_unknown_event(self, topo):
        # The compute events belong to no profiled phase, so finishing them
        # triggers no speculative request.
        res, spec = self.spec_log(topo)
        quiet = {res.event_times[e].end for e in ("w1", "w2")}
        assert not quiet & {e.time for e in spec}

    def test_silent_on_final_phase(self):
        # On 1-port NICs c evicts a from rank 0, so a request for the first
        # phase's ring after the final phase would be granted and logged.
        for nic_ports in (1, 2):
            topo = make_topo(num_domains=4, gpus_per_domain=2, nic_ports=nic_ports,
                             delay=0.01)
            res, _ = self.spec_log(topo)
            final_end = max(res.event_times[e].end for e in ("e3", "e4"))
            assert all(e.time < final_end for e in res.reconfig_log)

    def test_hides_the_second_delay(self, topo):
        dag = two_phase_dag(topo)
        assert simulate(dag, topo, REACTIVE).makespan == pytest.approx(0.075063, abs=1e-12)
        assert simulate(dag, topo, PROVISIONED).makespan == pytest.approx(0.065063, abs=1e-12)


class TestController:
    def test_grant_and_cache(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        assert grant(c, "a", 1.0) == [("a", 1.01)]
        assert c.group_up("a", 1.01) and not c.group_up("a", 1.0)
        # The ring stays cached on both ports of every member rank.
        assert all([p.group for p in c.ports[r]] == ["a", "a"] for r in (0, 2, 4))
        assert c.log[-1].ports_changed == 6

    def test_barrier_waits_for_all_ranks(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        # Ranks 0 and 2 ask at t=1, rank 4 only at t=3: nothing happens at 1.
        c.request("a", {0: 1.0, 2: 1.0, 4: 3.0}, False)
        assert c.scan(1.0, protected=set()) == []
        assert "a" in c.pending
        # The last rank's request completes the barrier.
        assert c.scan(3.0, protected=set()) == [("a", 3.01)]

    def test_fcfs_order_on_contention(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        # a and b both need both ports of ranks 2 and 4; b asked first, so b
        # is configured first and a then evicts b's circuits.
        c.request("b", {2: 1.0, 4: 1.0, 6: 1.0}, False)
        c.request("a", {0: 2.0, 2: 2.0, 4: 2.0}, False)
        grants = c.scan(2.0, protected=set())
        assert [g for g, _ in grants] == ["b"]
        # a stays queued while b's ports are still switching; the next scan
        # after the switch completes evicts b and serves a.
        assert "a" in c.pending
        grants = c.scan(2.01, protected=set())
        assert [g for g, _ in grants] == ["a"]
        assert c.group_up("a", 2.03)
        assert not c.group_up("b", 2.03)

    def test_blocked_by_busy_port(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        grant(c, "a", 0.0)
        c.mark_busy("a", 0.02, 5.0)
        # Both ports of ranks 2 and 4 carry traffic until t=5: c cannot form.
        assert grant(c, "c", 1.0) == []
        assert "c" in c.pending
        grants = c.scan(5.0, protected=set())
        assert [g for g, _ in grants] == ["c"]
        assert grants[0][1] == pytest.approx(5.01)

    def test_protected_groups_not_evicted(self):
        # 4-port NICs so rings a and b both fit on the shared ranks.
        topo = make_topo(num_domains=4, gpus_per_domain=2, nic_ports=4,
                         delay=0.01)
        groups = {
            "a": rail_group("a", [0, 2, 4], topo),
            "b": rail_group("b", [2, 4, 6], topo),
            "c": rail_group("c", [0, 2, 4, 6], topo, axis="SYNC"),
        }
        c = Controller(topo, groups)
        grant(c, "a", 0.0)
        grant(c, "b", 0.0)
        assert c.group_up("a", 0.5) and c.group_up("b", 0.5)
        # c needs 2 ports on ranks 2 and 4, which hold 2 for a and 2 for b.
        c.request("c", {0: 1.0, 2: 1.0, 4: 1.0, 6: 1.0}, False)
        assert c.scan(1.0, protected={"a", "b"}) == []
        grants = c.scan(1.0, protected={"a"})
        assert [g for g, _ in grants] == ["c"]
        # b lost its ring to the eviction, a kept its circuits.
        assert not c.group_up("b", 2.0)
        assert c.group_up("a", 2.0)

    def test_disjoint_rails_independent(self, topo):
        groups = {
            "r0": rail_group("r0", [0, 2, 4], topo),
            "r1": rail_group("r1", [1, 3, 5], topo),
        }
        c = Controller(topo, groups)
        c.request("r0", {0: 0.0, 2: 0.0, 4: 0.0}, False)
        c.request("r1", {1: 0.0, 3: 0.0, 5: 0.0}, False)
        grants = c.scan(0.0, protected=set())
        assert sorted(g for g, _ in grants) == ["r0", "r1"]

    def test_reuse_is_free(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        grant(c, "a", 0.0)
        assert grant(c, "a", 2.0) == [("a", 2.0)]  # ring still up: no new delay
        assert len(c.log) == 1  # and no second reconfiguration logged

    def test_eviction_prefers_free_then_lru(self, topo):
        groups = {
            "p1": rail_group("p1", [0, 2], topo, axis="PP"),
            "p2": rail_group("p2", [0, 4], topo, axis="PP"),
            "p3": rail_group("p3", [0, 6], topo, axis="PP"),
        }
        c = Controller(topo, groups)
        grant(c, "p1", 0.0)
        c.mark_busy("p1", 0.01, 0.5)
        grant(c, "p2", 1.0)  # takes rank 0's free port
        c.mark_busy("p2", 1.01, 1.2)
        # Rank 0 has no free port left; p3 must evict the least recently
        # used circuit, which is p1 (released 0.5 < 1.2).
        assert grant(c, "p3", 2.0) == [("p3", 2.01)]
        assert not c.group_up("p1", 3.0)
        assert c.group_up("p2", 3.0)

    def test_degree_infeasible_on_one_port_nic(self):
        topo = make_topo(num_domains=4, gpus_per_domain=2, nic_ports=1)
        groups = {"g": rail_group("g", [0, 2, 4], topo)}
        with pytest.raises(DegreeInfeasible):
            Controller(topo, groups)

    def test_pair_fits_one_port_nic(self):
        topo = make_topo(num_domains=4, gpus_per_domain=2, nic_ports=1, delay=0.01)
        groups = {"g": rail_group("g", [0, 2], topo, axis="PP")}
        c = Controller(topo, groups)
        assert grant(c, "g", 0.0) == [("g", 0.01)]

    def test_partial_request_waits_for_the_missing_rank(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        # Rank 4 of a = [0, 2, 4] has not asked: no scan may grant a.
        c.request("a", {0: 1.0, 2: 1.0}, False)
        assert c.scan(1.0, protected=set()) == []
        assert c.scan(2.0, protected=set()) == []
        c.request("a", {4: 2.5}, False)
        assert c.scan(2.5, protected=set()) == [("a", 2.51)]

    def test_merged_request_moves_its_barrier(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        c.request("a", {0: 1.0, 2: 1.0, 4: 3.0}, False)
        assert c.scan(1.0, protected=set()) == []
        # Rank 4 asks again, earlier: the merged request's barrier is 1.5.
        c.request("a", {4: 1.5}, False)
        assert c.scan(1.5, protected=set()) == [("a", 1.51)]

    def test_close_flushes_intervals(self, topo, rail0_groups):
        c = Controller(topo, rail0_groups)
        grant(c, "a", 0.0)
        c.close(9.0)
        assert len(c.circuit_intervals) == 6
        assert all(entry[3] == "a" and entry[5] == 9.0
                   for entry in c.circuit_intervals)


def ports_of(c, gid):
    """Oracle for `mark_busy`: every port holding the group's circuit, by
    member rank, then port index."""
    return [(rank, i) for rank in c.groups[gid].members
            for i, port in enumerate(c.ports.get(rank, ())) if port.group == gid]


class TestMarkBusy:
    GROUPS = {"a": [0, 2, 4], "b": [2, 4, 6], "c": [0, 2, 4, 6], "p02": [0, 2],
              "p06": [0, 6], "p46": [4, 6]}

    def controller(self, topo):
        return Controller(topo, {gid: rail_group(gid, members, topo, axis="DP")
                                 for gid, members in self.GROUPS.items()})

    def check(self, c, t):
        for gid in self.GROUPS:
            used = ports_of(c, gid)
            assert c.mark_busy(gid, t, t) == used
            assert all(c.ports[r][i].busy_until >= t for r, i in used)

    def test_after_evictions_and_partial_tears(self, topo):
        c = self.controller(topo)
        assert grant(c, "a", 0.0) == [("a", 0.01)]
        self.check(c, 0.01)
        # b takes both ports of ranks 2 and 4 from a; a keeps rank 0's.
        assert grant(c, "b", 1.0) == [("b", 1.01)]
        assert ports_of(c, "a") == [(0, 0), (0, 1)]
        self.check(c, 1.01)
        # A pair takes one port of ranks 0 and 6: a and b each lose one more.
        assert grant(c, "p06", 2.0) == [("p06", 2.01)]
        self.check(c, 2.01)
        # a comes back: it keeps its port on rank 0 and evicts for the rest.
        assert grant(c, "a", 3.0) == [("a", 3.01)]
        self.check(c, 3.01)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(sorted(GROUPS)), min_size=1, max_size=12))
    def test_matches_port_scan(self, order):
        topo = make_topo(num_domains=4, gpus_per_domain=2, nic_ports=2, delay=0.01)
        c = self.controller(topo)
        for k, gid in enumerate(order):
            t = 0.1 * k
            grant(c, gid, t)
            self.check(c, t)


class QueueController(Controller):
    """A reference for `Controller.scan`'s order, kept per rail: one FC-FS
    list of requests and one set of blocked ranks per rail, the rails in
    order, each list by earliest request, then group id."""

    def __init__(self, topo, groups):
        super().__init__(topo, groups)
        self.queue = {}  # rail -> its pending requests

    def request(self, gid, times, speculative):
        queued = gid in self.pending
        super().request(gid, times, speculative)
        if not queued:
            rail = next(iter(self.groups[gid].rails_touched))
            self.queue.setdefault(rail, []).append(self.pending[gid])

    def scan(self, now, protected):
        grants = []
        for rail in sorted(self.queue):
            q = self.queue[rail]
            q.sort(key=lambda p: (min(p.times.values()), p.group.id))
            blocked_ranks, remaining = set(), []
            for p in q:
                members = p.group.members
                ready = None
                if p.barrier_time <= now and blocked_ranks.isdisjoint(members):
                    ready = self._try_apply(p, now, protected)
                if ready is None:
                    blocked_ranks.update(members)
                    remaining.append(p)
                else:
                    del self.pending[p.group.id]
                    grants.append((p.group.id, ready))
            self.queue[rail] = remaining
        return grants


# TestMarkBusy's six groups on rail 0 (ranks 0, 2, 4, 6) and three on rail 1
# (ranks 1, 3, 5, 7).
TWO_RAILS = {**TestMarkBusy.GROUPS, "a1": [1, 3, 5], "b1": [3, 5, 7], "p17": [1, 7]}

# One step of a request/scan sequence: a request of a group (reactive or
# speculative) whose ranks outside a bit mask ask only later, or a scan with
# some groups protected.
REQUEST = st.tuples(st.just("request"), st.sampled_from(sorted(TWO_RAILS)),
                    st.integers(min_value=1, max_value=15), st.booleans())
SCAN = st.tuples(st.just("scan"), st.sets(st.sampled_from(sorted(TWO_RAILS))))


class TestScanOrder:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(REQUEST, SCAN), min_size=1, max_size=30))
    # A rail-1 request earlier than a rail-0 request: one scan grants both,
    # rail 0's first.
    @example([("request", "a1", 15, False), ("request", "a", 15, False), ("scan", set())])
    def test_matches_per_rail_queues(self, steps):
        # With 2-port NICs, grants evict and block each other on each rail,
        # and partial requests merge into later ones.
        topo = make_topo(num_domains=4, gpus_per_domain=2, nic_ports=2, delay=0.01)
        pair = [cls(topo, {gid: rail_group(gid, members, topo)
                           for gid, members in TWO_RAILS.items()})
                for cls in (Controller, QueueController)]
        for k, step in enumerate(steps):
            t = 0.004 * k
            if step[0] == "request":
                _, gid, mask, speculative = step
                times = {r: t if mask >> n & 1 else t + 0.02
                         for n, r in enumerate(TWO_RAILS[gid])}
                for c in pair:
                    c.request(gid, times, speculative)
            else:
                served = []
                for c in pair:
                    grants = c.scan(t, protected=step[1])
                    served.append((grants, [c.mark_busy(gid, ready, ready + 0.006)
                                            for gid, ready in grants]))
                assert served[0] == served[1]
            c, ref = pair
            assert c.pending.keys() == ref.pending.keys()
            assert c.log == ref.log
            assert c.circuit_intervals == ref.circuit_intervals
            assert c.ports == ref.ports


class TestScoreboard:
    def test_seed_matches_the_reference(self):
        # Seed 7's 101 pairs, s043-prov's ConflictDeadlock among them.
        results, _ = scoreboard.run((7,))
        reference = [line for line in scoreboard.REFERENCE.read_text().splitlines()
                     if line.startswith("7/")]
        assert len(results) == len(reference) == 202
        assert scoreboard.moved(results, reference) == []


# 4 domains x 2 GPUs, rank r in domain r // 2 on rail r % 2.  b (rank 4)
# shares no rank with t (TP, ranks 0 and 1) or with c (DP, ranks 0 and 2),
# and c shares none with h (DP, ranks 4 and 6), so those edges gate every rank.
BARRIER_TRACE = (HEADER + "#group,t,TP,0;1,0;1\n#group,g,DP,0;2,0\n#group,h,DP,4;6,0\n"
                 "a,0,compute,compute,,,0,,0.0,3.0\n"
                 "b,4,compute,compute,,,0,,0.0,2.0\n"
                 "t,0,tp,collective,AllReduce,t,1000,b,,\n"
                 "t,1,tp,collective,AllReduce,t,1000,b,,\n"
                 "c,0,dp,collective,AllReduce,g,1000,a;b,,\n"
                 "c,2,dp,collective,AllReduce,g,1000,a;b,,\n"
                 "h,4,dp,collective,AllGather,h,1000,c,,\n"
                 "h,6,dp,collective,AllGather,h,1000,c,,\n")


class TestBarrier:
    """An event starts once its last rank has joined: a non-circuit event
    exactly then, a circuit event no earlier.  The engine starts events when
    their last dependency finishes and derives per-rank joins only when asked
    (`_joins`), so this checks the two agree."""

    def check(self, dag, topo, policy):
        prepared = Prepared(dag, topo, policy.alpha)
        times = simulate(dag, topo, policy, prepared=prepared).event_times
        seen = {False: 0, True: 0}
        for eid, t in times.items():  # every rail's events
            if len(t.starts) < 2:
                continue
            # Compiled by the row of the event or of its rail-0 twin.
            circuit = prepared.c.circuit[dag.locate(eid)[0]]
            joined = max(t.starts.values())
            if circuit:
                assert t.start >= joined
            else:
                assert t.start == joined
            seen[circuit] += 1
        return seen

    @pytest.mark.parametrize("policy", [REACTIVE, PROVISIONED])
    @pytest.mark.parametrize("delay", [0.0, 0.5])
    def test_generated(self, policy, delay):
        topo = make_topo(num_domains=8, gpus_per_domain=2, nic_ports=2, delay=delay)
        dag = generate_3d_schedule(make_params(pp=4, dp=2, tp=2, n_layer=6), topo)
        seen = self.check(dag, topo, policy)
        assert seen[False] and seen[True]

    @pytest.mark.parametrize("policy", [REACTIVE, PROVISIONED])
    @pytest.mark.parametrize("delay", [0.0, 0.01])
    def test_dependency_sharing_no_rank(self, policy, delay):
        topo = make_topo(num_domains=4, gpus_per_domain=2, delay=delay)
        dag = loads_trace(BARRIER_TRACE)
        assert self.check(dag, topo, policy) == {False: 1, True: 2}
        times = simulate(dag, topo, policy).event_times
        assert times["t"].starts == {0: 2.0, 1: 2.0}
        assert times["c"].starts == {0: 3.0, 2: 2.0}


class TestExposedDelay:
    def make_window_dag(self, topo, gap):
        """Two rail-0 phases separated by a compute gap of `gap` seconds."""
        dag = EventDag()
        dag.groups["g1"] = rail_group("g1", [0, 2], topo)
        dag.groups["g2"] = rail_group("g2", [4, 6], topo)
        dag.add(coll("c1", "g1", [0, 2], nbytes=10**6))
        gap_ev = Event(id="gap", kind=COMPUTE, rank_set=(4,),
                       streams={4: "compute"}, deps=("c1",), duration=gap)
        dag.add(gap_ev)
        c2 = coll("c2", "g2", [4, 6], nbytes=10**6)
        c2.deps = ("gap",)
        dag.add(c2)
        return dag

    @pytest.mark.parametrize("gap", [0.0, 0.004, 0.02])
    def test_provisioning_hides_delay_inside_window(self, gap):
        delay = 0.01
        topo = make_topo(num_domains=4, gpus_per_domain=2, nic_ports=2,
                         delay=delay)
        dag = self.make_window_dag(topo, gap)
        reactive = simulate(dag, topo, REACTIVE)
        provisioned = simulate(dag, topo, PROVISIONED)
        baseline = simulate(dag, topo, REACTIVE, force_baseline=True)
        # Reactive always pays the full delay before c2; provisioning issues
        # the request when c1 finishes, so only max(0, delay - gap) leaks.
        exposed_r = reactive.makespan - baseline.makespan
        exposed_p = provisioned.makespan - baseline.makespan
        assert exposed_r == pytest.approx(2 * delay, abs=1e-9)
        assert exposed_p == pytest.approx(delay + max(0.0, delay - gap), abs=1e-9)
