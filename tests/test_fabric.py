"""Collective timing model and the discrete-event engine."""

import hashlib
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings, strategies as st

from railsim import (ControlPolicy, Event, EventDag, MissingDependency, NotMember,
                     RailsimError, UnsupportedKind, collective_time, fabric,
                     generate_3d_schedule, load_trace, loads_trace, make_group, save_trace,
                     simulate, sweep_delay)
from railsim.fabric import Prepared

from conftest import (BAD_TRACES, CALIBRATION, HEADER, PROVISIONED, REACTIVE,
                      assert_circuit_invariants, make_params, make_topo)


class TestCollectiveTime:
    B = 100e9  # bytes/s
    A = 1e-6

    def test_allreduce(self):
        # 4 ranks, 1 GB: 2*(3/4)*S/B plus 6 hops of latency.
        t = collective_time("AllReduce", 10**9, 4, self.B, self.A)
        assert t == pytest.approx(1.5 * 1e9 / self.B + 6e-6)

    def test_allgather_reducescatter(self):
        for kind in ("AllGather", "ReduceScatter"):
            t = collective_time(kind, 8 * 10**8, 8, self.B, self.A)
            assert t == pytest.approx((7 / 8) * 8e8 / self.B + 7e-6)

    def test_sendrecv(self):
        assert collective_time("SendRecv", 5 * 10**8, 2, self.B, self.A) == \
            pytest.approx(5e8 / self.B + 1e-6)

    def test_singleton_is_free(self):
        for kind in ("AllReduce", "AllGather", "ReduceScatter", "SendRecv"):
            assert collective_time(kind, 10**9, 1, self.B, self.A) == 0.0

    def test_alltoall_unsupported(self):
        with pytest.raises(UnsupportedKind):
            collective_time("AllToAll", 10**6, 4, self.B, self.A)

    def test_bad_bandwidth(self):
        with pytest.raises(UnsupportedKind):
            collective_time("AllReduce", 10**6, 4, 0.0, self.A)

    @given(n=st.integers(2, 64), s=st.integers(1, 10**10))
    def test_allreduce_equals_ag_plus_rs(self, n, s):
        ar = collective_time("AllReduce", s, n, self.B, self.A)
        ag = collective_time("AllGather", s, n, self.B, self.A)
        rs = collective_time("ReduceScatter", s, n, self.B, self.A)
        assert ar == pytest.approx(ag + rs)


def run(delay, policy=REACTIVE, **kw):
    kind = kw.pop("kind", "ocs")
    topo = make_topo(kind=kind, delay=delay)
    dag = generate_3d_schedule(make_params(**kw), topo)
    return simulate(dag, topo, policy)


class TestEngine:
    def test_zero_delay_matches_electrical(self):
        for params in ({}, {"pp": 4, "dp": 1, "n_layer": 8, "n_microbatch": 3},
                       {"n_layer": 5}):
            ocs = run(0.0, **params)
            elec = run(0.0, kind="electrical", **params)
            assert ocs.makespan == elec.makespan
            assert set(ocs.event_times) == set(elec.event_times)
            for eid in ocs.event_times:
                assert ocs.event_times[eid].start == elec.event_times[eid].start
                assert ocs.event_times[eid].end == elec.event_times[eid].end
            assert not ocs.reconfig_log
            assert ocs.overhead_vs_baseline == 1.0

    def test_deterministic(self):
        r1, r2 = run(0.01), run(0.01)
        assert r1.makespan == r2.makespan
        assert r1.reconfig_log == r2.reconfig_log
        assert [(e, t.start, t.end) for e, t in r1.event_times.items()] == \
               [(e, t.start, t.end) for e, t in r2.event_times.items()]

    def test_delay_slows_things_down(self):
        base = run(0.0).makespan
        prev = base
        for d in (0.001, 0.01, 0.05, 0.1):
            m = run(d).makespan
            assert m >= prev - 1e-12
            prev = m
        assert prev > base

    def test_provisioning_never_worse(self):
        for d in (0.001, 0.01, 0.05, 0.1):
            assert run(d, PROVISIONED).makespan <= run(d, REACTIVE).makespan + 1e-12

    def test_reconfigs_are_logged_with_delay(self):
        res = run(0.05)
        assert res.reconfig_log
        for entry in res.reconfig_log:
            assert entry.delay == 0.05
            assert entry.time >= 0.0
            assert not entry.speculative
        spec = run(0.05, PROVISIONED)
        assert any(e.speculative for e in spec.reconfig_log)

    def test_overhead_definition(self):
        res = run(0.1)
        base = run(0.0).makespan
        assert res.overhead_vs_baseline == pytest.approx(res.makespan / base)

    def test_force_baseline_ignores_switching(self):
        topo = make_topo(delay=0.1)
        dag = generate_3d_schedule(make_params(), topo)
        res = simulate(dag, topo, REACTIVE, force_baseline=True)
        elec = run(0.0, kind="electrical")
        assert res.makespan == elec.makespan
        assert not res.reconfig_log

    def test_all_events_timed(self):
        res = run(0.01)
        topo = make_topo(delay=0.01)
        dag = generate_3d_schedule(make_params(), topo)
        assert set(res.event_times) == set(dag.events)
        for eid, t in res.event_times.items():
            assert t.end >= t.start
            assert all(j <= t.start + 1e-12 for j in t.starts.values())
            for d in dag.events[eid].deps:
                assert res.event_times[d].end <= t.start + 1e-12


class TestSweep:
    def test_rows_in_input_order(self):
        topo = make_topo(kind="ocs", delay=0.0)
        dag = generate_3d_schedule(make_params(n_layer=4), topo)
        delays = [0.0, 0.02]
        rows = sweep_delay(dag, topo, delays, [REACTIVE, PROVISIONED])
        assert [(r[0], r[1]) for r in rows] == [
            (0.0, "reactive"), (0.0, "provisioning"),
            (0.02, "reactive"), (0.02, "provisioning")]


SWEEP_DELAYS = (0.0, 0.002, 0.05, 0.3)


class TestPrepared:
    @pytest.mark.parametrize("topo_kw,params", [
        ({"nic_ports": 2, "delay": 0.01}, {}),
        ({"nic_ports": 4, "delay": 0.0}, {"pp": 1, "dp": 4, "n_layer": 5, "n_microbatch": 3}),
        ({"kind": "electrical"}, {"pp": 4, "dp": 1}),
    ], ids=["nic2", "nic4-zero-delay", "electrical"])
    def test_sweep_rows_equal_standalone_runs(self, topo_kw, params):
        topo = make_topo(**topo_kw)
        dag = generate_3d_schedule(make_params(**params), topo)
        policies = [REACTIVE, PROVISIONED, ControlPolicy(provisioning=True, alpha=5e-6)]
        want = []
        for d in SWEEP_DELAYS:
            t = replace(topo, rail_switch=replace(topo.rail_switch, reconfig_delay=d))
            for p in policies:
                r = simulate(dag, t, p)
                want.append((d, p.label, r.makespan, r.overhead_vs_baseline))
        assert sweep_delay(dag, topo, SWEEP_DELAYS, policies) == want

    def test_one_simulate_per_point_one_compile_per_alpha(self, monkeypatch):
        calls = {"simulate": 0, "compile": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fabric, "simulate", counted("simulate", fabric.simulate))
        monkeypatch.setattr(fabric, "_CompiledDag", counted("compile", fabric._CompiledDag))
        topo = make_topo(delay=0.01)
        dag = generate_3d_schedule(make_params(), topo)
        sweep_delay(dag, topo, SWEEP_DELAYS, [REACTIVE, PROVISIONED])
        assert calls == {"simulate": 8, "compile": 1}
        sweep_delay(dag, topo, SWEEP_DELAYS[1:],
                    [REACTIVE, ControlPolicy(provisioning=True, alpha=5e-6)])
        assert calls == {"simulate": 14, "compile": 3}

    def test_reused_across_delays(self):
        topo = make_topo(delay=0.01)
        dag = generate_3d_schedule(make_params(), topo)
        prep = Prepared(dag, topo, PROVISIONED.alpha)
        for d in (0.05, 0.0, 0.01):
            t = replace(topo, rail_switch=replace(topo.rail_switch, reconfig_delay=d))
            got = simulate(dag, t, PROVISIONED, prepared=prep)
            want = simulate(dag, t, PROVISIONED)
            assert got.makespan == want.makespan
            assert got.reconfig_log == want.reconfig_log
            assert got.transfer_log == want.transfer_log

    @pytest.mark.parametrize("change", [
        {"nic": replace(make_topo().nic, ports=4)},
        {"num_domains": 8},
        {"scaleup_bandwidth": 1e12},
        {"rail_switch": replace(make_topo().rail_switch, radix=64)},
        {"rail_switch": replace(make_topo().rail_switch, kind="electrical")},
    ], ids=["nic", "domains", "scaleup", "radix", "kind"])
    def test_mismatched_topology_rejected(self, change):
        topo = make_topo(delay=0.01)
        dag = generate_3d_schedule(make_params(), topo)
        prep = Prepared(dag, topo, REACTIVE.alpha)
        with pytest.raises(ValueError, match="topology"):
            simulate(dag, replace(topo, **change), REACTIVE, prepared=prep)

    def test_mismatched_alpha_or_dag_rejected(self):
        topo = make_topo(delay=0.01)
        dag = generate_3d_schedule(make_params(), topo)
        prep = Prepared(dag, topo, REACTIVE.alpha)
        with pytest.raises(ValueError, match="alpha"):
            simulate(dag, topo, ControlPolicy(alpha=2e-6), prepared=prep)
        other = generate_3d_schedule(make_params(), topo)
        with pytest.raises(ValueError, match="DAG"):
            simulate(other, topo, REACTIVE, prepared=prep)


class TestJoins:
    @pytest.mark.parametrize("kind,delay", [("electrical", 0.0), ("ocs", 0.01)])
    def test_dependency_gates_shared_ranks_or_all(self, kind, delay):
        # Collective c on ranks 0 and 2 waits for a (rank 0, ends at 3 s) and
        # b (rank 4, ends at 2 s).  b shares no rank with c, so it gates both
        # ranks; a shares rank 0, so it gates rank 0 only.
        dag = loads_trace(HEADER + "#group,g,DP,0;2,0\n"
                          "a,0,compute,compute,,,0,,0.0,3.0\n"
                          "b,4,compute,compute,,,0,,0.0,2.0\n"
                          "c,0,dp,collective,AllReduce,g,1000,a;b,,\n"
                          "c,2,dp,collective,AllReduce,g,1000,a;b,,\n")
        topo = make_topo(num_domains=4, gpus_per_domain=2, kind=kind, delay=delay)
        c = simulate(dag, topo, REACTIVE).event_times["c"]
        assert c.starts == {0: 3.0, 2: 2.0}
        assert c.start == 3.0 + delay

    @pytest.mark.parametrize("policy", [REACTIVE, PROVISIONED])
    def test_rankless_event_waits_for_its_dependencies(self, policy):
        # a (rank 0, 1 s) -> 2-rank AllReduce c -> rankless z (2 s).  Both
        # the baseline and the circuit engine start z when c ends, so the
        # overhead at delay 0.5 s is the one reconfiguration before c.
        def run(delay, **kw):
            topo = make_topo(num_domains=4, gpus_per_domain=2, kind="ocs", delay=delay)
            dag = EventDag()
            dag.groups["g"] = make_group("g", "DP", (0, 2), topo)
            dag.add(Event("a", "compute", (0,), {0: "compute"}, duration=1.0))
            dag.add(Event("c", "collective", (0, 2), {0: "dp", 2: "dp"}, deps=("a",),
                          group="g", coll_kind="AllReduce", bytes=0))
            dag.add(Event("z", "compute", (), {}, deps=("c",), duration=2.0))
            return simulate(dag, topo, policy, **kw)

        base = run(0.5, force_baseline=True)
        assert base.event_times["z"].start == base.event_times["c"].end
        assert base.makespan == pytest.approx(3.000002, abs=1e-12)
        assert run(0.0).makespan == base.makespan
        res = run(0.5)
        assert res.event_times["z"].start == res.event_times["c"].end
        assert res.makespan - base.makespan == pytest.approx(0.5, abs=1e-12)


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestEventOrder:
    """The engine's order of events, reconfigurations and transfers, pinned
    on a contested 2-port shape: 16 one-GPU domains, pp=4, dp=4, 14 layers,
    one microbatch, 0.5 s switching, with the benchmark's calibration.  Both
    policies evict circuits (88 torn before the end).  `list(event_times)`
    is the start order, which no output file shows."""

    PINS = {
        "reactive": {
            "reconfig_log": "d01ee5803e5c8601e4c81743be6e386190174e240bd64d5673e48d52858bf366",
            "circuit_log": "246ca52e19d38acdf8ad40735285ea6e2814295f1ffc3ee248afac139fa46317",
            "transfer_log": "e89e0741424cdd73ccd1783ecedc3a8ef9771a54e9fe53ae333436f125c129a8",
            "start_order": "af90c3fdc99482c03f1c6d8474c2335dddd147d32bb5117a8a23737ab0b27b7f",
        },
        "provisioning": {
            "reconfig_log": "50f1137b22d48a481d59a606c4e078aec718b6778ba6f544afc02bb7e2763cfe",
            "circuit_log": "d92e4a93fa07b084ae4e9e7edd1950f073d4d9aa37e286ec34a8e192c08102b8",
            "transfer_log": "10c4e4929c200d914cbcad6b17e79d0e968812d0e7e6f8e8208f0c18ab6dcf32",
            "start_order": "6b786de784333fedc9fbf9e60a9693b68d5c8bd192127fc91267e6f092763ce6",
        },
    }

    @pytest.mark.parametrize("policy", [REACTIVE, PROVISIONED], ids=lambda p: p.label)
    def test_pinned(self, policy):
        topo = make_topo(num_domains=16, gpus_per_domain=1, nic_ports=2, delay=0.5)
        params = make_params(pp=4, dp=4, tp=1, n_layer=14, n_microbatch=1,
                             param_bytes=29_900_000, act_bytes=16_000_000,
                             sync_bytes=100_000, fwd=0.12, bwd=0.04, optim=0.02,
                             pre=0.005)
        res = simulate(generate_3d_schedule(params, topo), topo, policy)
        assert sum(down < res.makespan for *_, down in res.circuit_log) == 88
        assert {
            "reconfig_log": digest([astuple(e) for e in res.reconfig_log]),
            "circuit_log": digest(res.circuit_log),
            "transfer_log": digest(res.transfer_log),
            "start_order": digest(list(res.event_times)),
        } == self.PINS[policy.label]


class TestNoDeadlock:
    """Contested 2-port shapes with two microbatches at 0.5 s switching,
    provisioned.  Events reach rings that are being reconfigured; a second
    request for such a ring would protect it from the requests queued ahead
    of it while waiting behind them, and the run would end in
    ConflictDeadlock."""

    SHAPES = {  # (pp, dp, GPUs per domain, n_layer, calibration)
        **{f"4x4-L{n}": (4, 4, 1, n, CALIBRATION) for n in (6, 8, 10, 12, 13, 14)},
        "4x4-L14-defaults": (4, 4, 1, 14, {}),
        "2x3-G2-L6-defaults": (2, 3, 2, 6, {}),
        "2x4-G2-L6-defaults": (2, 4, 2, 6, {}),
        "2x3-L3": (2, 3, 1, 3, CALIBRATION),
    }

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_provisioned_finishes(self, shape):
        pp, dp, gpus, n_layer, calibration = shape
        topo = make_topo(num_domains=pp * dp, gpus_per_domain=gpus, nic_ports=2, delay=0.5)
        dag = generate_3d_schedule(make_params(pp=pp, dp=dp, tp=gpus, n_layer=n_layer,
                                               n_microbatch=2, **calibration), topo)
        res = simulate(dag, topo, PROVISIONED)
        assert assert_circuit_invariants(res, topo) > 0
        assert res.makespan >= simulate(dag, topo, force_baseline=True).makespan


class TestNearZeroDelay:
    # Acceptance criterion 4's shapes (pp, dp, n_layer, n_microbatch).  A zero
    # delay takes the full-connectivity path, so a tiny positive one is what
    # runs the circuit engine: every ring is requested, switched and granted.
    @pytest.mark.parametrize("pp,dp,n_layer,m", [(2, 2, 8, 2), (4, 1, 8, 3), (1, 4, 4, 2),
                                                 (2, 2, 32, 4), (3, 2, 9, 2)])
    @pytest.mark.parametrize("nic_ports", [2, 4])
    def test_engine_matches_electrical(self, pp, dp, n_layer, m, nic_ports):
        params = make_params(pp=pp, dp=dp, n_layer=n_layer, n_microbatch=m)
        elec_topo = make_topo(num_domains=pp * dp, nic_ports=nic_ports, kind="electrical")
        elec = simulate(generate_3d_schedule(params, elec_topo), elec_topo, REACTIVE)
        topo = make_topo(num_domains=pp * dp, nic_ports=nic_ports, delay=1e-12)
        dag = generate_3d_schedule(params, topo)
        for policy in (REACTIVE, PROVISIONED):
            res = simulate(dag, topo, policy)
            assert res.reconfig_log
            assert res.makespan == pytest.approx(elec.makespan, rel=1e-9, abs=0)


def assert_overhead_is_over_baseline(dag, topo, policy):
    res = simulate(dag, topo, policy)
    base = simulate(dag, topo, policy, force_baseline=True)
    assert res.makespan > base.makespan
    assert res.makespan / res.overhead_vs_baseline == pytest.approx(base.makespan, rel=1e-12)


class TestBaseline:
    @pytest.mark.parametrize("policy", [REACTIVE, PROVISIONED])
    @pytest.mark.parametrize("params", [{}, {"pp": 4, "dp": 1, "n_microbatch": 3},
                                        {"pp": 1, "dp": 4, "n_layer": 5}])
    def test_overhead_is_over_force_baseline(self, params, policy):
        topo = make_topo(delay=0.02)
        dag = generate_3d_schedule(make_params(**params), topo)
        assert_overhead_is_over_baseline(dag, topo, policy)

    def test_overhead_after_trace_round_trip(self, tmp_path):
        topo = make_topo(delay=0.02)
        dag = generate_3d_schedule(make_params(), topo)
        for eid, t in simulate(dag, topo, force_baseline=True).event_times.items():
            i = dag.locate(eid)[0]
            dag.observed_start[i], dag.observed_end[i] = t.start, t.end
        path = str(tmp_path / "t.csv")
        save_trace(dag, path)
        assert_overhead_is_over_baseline(load_trace(path), topo, PROVISIONED)


class TestRejectedInputs:
    @pytest.mark.parametrize("body", BAD_TRACES.values(), ids=BAD_TRACES.keys())
    @pytest.mark.parametrize("kind", ["electrical", "ocs"])
    def test_not_simulated(self, body, kind):
        dag = loads_trace(HEADER + body)
        topo = make_topo(num_domains=4, gpus_per_domain=2, kind=kind, delay=0.01)
        with pytest.raises(NotMember):
            simulate(dag, topo, PROVISIONED)

    # Hand-built DAGs, which no parser has seen: compiling is their gate.
    @pytest.mark.parametrize("kind", ["electrical", "ocs"])
    def test_unknown_dependency(self, kind):
        dag = EventDag()
        dag.add(Event("a", "compute", (0,), {0: "compute"}, duration=1.0))
        dag.add(Event("b", "compute", (0,), {0: "compute"}, deps=("typo_of_a",),
                      duration=1.0))
        topo = make_topo(num_domains=4, gpus_per_domain=2, kind=kind, delay=0.01)
        with pytest.raises(MissingDependency, match="b depends on unknown event typo_of_a"):
            simulate(dag, topo, PROVISIONED)

    @pytest.mark.parametrize("kind", ["electrical", "ocs"])
    def test_unknown_group(self, kind):
        topo = make_topo(num_domains=4, gpus_per_domain=2, kind=kind, delay=0.01)
        dag = EventDag()
        dag.groups["g"] = make_group("g", "DP", (0, 2), topo)
        dag.add(Event("c", "collective", (0, 2), {0: "dp", 2: "dp"}, group="ghost",
                      coll_kind="AllGather", bytes=100))
        with pytest.raises(NotMember, match="collective c names unknown group ghost"):
            simulate(dag, topo, PROVISIONED)

    @pytest.mark.parametrize("rank", [-1, 8])
    @pytest.mark.parametrize("kind", ["electrical", "ocs"])
    def test_rank_outside_topology(self, rank, kind):
        topo = make_topo(num_domains=4, gpus_per_domain=2, kind=kind, delay=0.01)
        dag = EventDag()
        dag.add(Event("a", "compute", (0,), {0: "compute"}, duration=1.0))
        dag.add(Event("b", "compute", (rank,), {rank: "compute"}, deps=("a",),
                      duration=1.0))
        with pytest.raises(NotMember, match=rf"event b names ranks \[{rank}\]; "
                                            "the topology has ranks 0-7"):
            simulate(dag, topo, PROVISIONED)


def outcome(dag, topo, policy, prepared):
    """Everything a run shows, with every event's timing by id and its logs
    as multisets, or its error."""
    try:
        res = simulate(dag, topo, policy, prepared=prepared)
    except RailsimError as e:
        return type(e), str(e)
    return {
        "makespan": res.makespan,
        "overhead": res.overhead_vs_baseline,
        "times": dict(res.event_times.items()),  # start, end and per-rank joins
        "events": sorted(res.event_times),  # each event once
        "reconfig_log": sorted(astuple(e) for e in res.reconfig_log),
        "circuit_log": sorted(res.circuit_log),
        "transfer_log": sorted(res.transfer_log),
    }


class TestRailTwins:
    """A generated DAG holds rail 0's rows and the TP rows, and is timed as
    held, its timing copied to the other rails.  Each run must equal the run
    of its expansion, which holds every row and is timed row by row: every
    event's times and per-rank joins, the logs, or the error.  Every point
    of a delay sweep runs through one shared `Prepared` on each side."""

    def check(self, pp, dp, gpus, nic_ports, n_layer, m, delays, calibration):
        topo = make_topo(num_domains=pp * dp, gpus_per_domain=gpus, nic_ports=nic_ports)
        params = make_params(pp=pp, dp=dp, tp=gpus, n_layer=n_layer, n_microbatch=m,
                             **calibration)
        dag = generate_3d_schedule(params, topo)
        ref = dag.expanded()
        assert (dag.rails, ref.rails) == (gpus, 1)
        assert len(dag.ids) < len(ref.ids) == len(ref) == len(dag)
        prep, ref_prep = Prepared(dag, topo, REACTIVE.alpha), Prepared(ref, topo, REACTIVE.alpha)
        errors = set()
        for d in delays:
            t = replace(topo, rail_switch=replace(topo.rail_switch, reconfig_delay=d))
            for policy in (REACTIVE, PROVISIONED):
                got = outcome(dag, t, policy, prep)
                assert got == outcome(ref, t, policy, ref_prep)
                if isinstance(got, tuple):
                    errors.add(got[0].__name__)
        return errors

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(pp, dp) for pp in range(1, 5) for dp in range(1, 4)
                                  if pp * dp >= 2]),
           gpus=st.sampled_from((2, 4, 8)), nic_ports=st.sampled_from((2, 4)),
           extra_layers=st.integers(0, 3), m=st.integers(1, 3),
           small=st.floats(1e-6, 0.01), large=st.floats(0.5, 1.0),
           calibrated=st.booleans())
    def test_matches_row_by_row(self, shape, gpus, nic_ports, extra_layers, m, small,
                                large, calibrated):
        pp, dp = shape
        self.check(pp, dp, gpus, nic_ports, pp + extra_layers, m, (0.0, small, large),
                   CALIBRATION if calibrated else {})

    def test_deadlock_counts_every_rail(self):
        # A shape whose provisioned run deadlocks at 0.5 s switching (a known
        # deadlock mode; a controller without it needs another shape here).
        assert self.check(8, 2, 2, 2, 10, 2, (0.5,), CALIBRATION) == {"ConflictDeadlock"}

    def test_infeasible_ring_names_the_same_group(self):
        # A 1-port NIC cannot hold the 3-member DP rings.
        assert self.check(2, 3, 4, 1, 4, 1, (0.0, 0.01), {}) == {"DegreeInfeasible"}
