"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the live terminal (bypassing
capture) and then asserts, so a plain pytest run doubles as a scorecard.
"""

import hashlib
import os
import random
import time

import pytest

from railsim import (ControlPolicy, EventDag, EventTiming, analyze_rail,
                     build_topology, classify_by_volume, eq1_bound,
                     generate_3d_schedule, make_group, scalability_table,
                     segment_phases, simulate, sweep_delay)
from railsim.cli import DEFAULT_CLASS_EDGES, load_scenario, main
from railsim.econ import DEFAULT_SCALEUPS, DEFAULT_TECHS
from railsim.workload import COLLECTIVE, Event

from conftest import (PROVISIONED, REACTIVE, assert_circuit_invariants,
                      make_params, make_topo)


def report(capfd, n, ok, detail):
    with capfd.disabled():
        print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def scenario():
    import railsim.cli
    return load_scenario(railsim.cli.DEFAULT_SCENARIO)


def test_criterion_1_scalability_table(capfd):
    t0 = time.monotonic()
    expected = {
        (16, "GB200"): 576, (16, "H200"): 64,
        (32, "GB200"): 1152, (32, "H200"): 128,
        (128, "GB200"): 4608, (128, "H200"): 512,
        (320, "GB200"): 11520, (320, "H200"): 1280,
        (576, "GB200"): 20736, (576, "H200"): 2304,
        (512, "GB200"): 18432, (512, "H200"): 2048,
        (1008, "GB200"): 36288, (1008, "H200"): 4032,
    }
    rows = scalability_table()
    got = {(r["radix"], label): r[f"max_gpus_{label}"]
           for r in rows for label, _ in DEFAULT_SCALEUPS}
    ok = got == expected and len(rows) == len(DEFAULT_TECHS)
    dt = time.monotonic() - t0
    report(capfd, 1, ok and dt < 1.0,
           f"14/14 scalability cells exact in {dt:.3f}s")


def brute_force_windows(dag, times, rail):
    """Quadratic reference: sort, split on (axis, kind), min/max per pair."""
    events = []
    for eid, ev in dag.events.items():
        g = dag.groups.get(ev.group or "")
        if ev.kind == COLLECTIVE and g and g.is_scaleout and rail in g.rails_touched:
            events.append(eid)

    def cstart(e):
        t = times[e]
        return max(t.starts.values()) if t.starts else t.start

    events.sort(key=lambda e: (cstart(e), e))
    phases, cur, prev = [], [], None
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
        out.append((max(times[e].end for e in a), min(cstart(e) for e in b)))
    return out


def test_criterion_2_window_oracle(capfd):
    t0 = time.monotonic()
    rng = random.Random(0xA11CE)
    topo = make_topo(num_domains=8, gpus_per_domain=1, nic_ports=2)
    kinds = ("AllGather", "ReduceScatter", "AllReduce", "SendRecv")
    axes = ("DP", "PP", "SYNC", "FSDP")
    trials = 0
    for _ in range(1000):
        dag = EventDag()
        n_groups = rng.randrange(1, 5)
        for gi in range(n_groups):
            members = rng.sample(range(8), rng.randrange(1, 9))
            dag.groups[f"g{gi}"] = make_group(f"g{gi}", rng.choice(axes),
                                              sorted(members), topo)
        times = {}
        for ei in range(rng.randrange(2, 51)):
            gid = f"g{rng.randrange(n_groups)}"
            g = dag.groups[gid]
            ev = Event(id=f"e{ei}", kind=COLLECTIVE, rank_set=g.members,
                       streams={r: "s" for r in g.members}, group=gid,
                       coll_kind=rng.choice(kinds),
                       bytes=rng.randrange(1, 10**9))
            dag.add(ev)
            start = rng.uniform(0, 50)
            starts = {r: start + rng.uniform(0, 3) for r in g.members}
            end = max(starts.values()) + rng.uniform(0, 5)
            times[ev.id] = EventTiming(start, end, starts)
        # The caller supplies each row's communication start: its slowest
        # rank's join.
        rep = analyze_rail(dag, [max(times[e].starts.values()) for e in dag.ids],
                           [times[e].end for e in dag.ids], 0)
        expected = brute_force_windows(dag, times, 0)
        got = [(w.start, w.end) for w in rep.windows] + \
              [(o.magnitude,) for o in rep.overlaps]
        want = [(s, t) for s, t in expected if t >= s] + \
               [(s - t,) for s, t in expected if t < s]
        if got != want:
            report(capfd, 2, False, f"mismatch on randomized timeline {trials}")
        trials += 1
    dt = time.monotonic() - t0
    report(capfd, 2, trials == 1000 and dt < 10.0,
           f"window extraction matched the brute-force oracle on "
           f"{trials} randomized timelines in {dt:.2f}s")


def test_criterion_3_window_count_bound(capfd):
    t0 = time.monotonic()
    worst = (0, 1, None)
    for pp in (2, 3, 4):
        for n_layer in (8, 16, 32):
            for m in (2, 4):
                topo = make_topo(num_domains=pp * 2)
                params = make_params(pp=pp, dp=2, n_layer=n_layer,
                                     n_microbatch=m)
                dag = generate_3d_schedule(params, topo)
                res = simulate(dag, topo, REACTIVE)  # zero switching delay
                bound = eq1_bound(pp, n_layer, m, False, False)
                for rail in range(topo.gpus_per_domain):
                    n = len(analyze_rail(dag, res.event_times.start,
                                         res.event_times.end, rail).windows)
                    if n / bound > worst[0] / worst[1]:
                        worst = (n, bound, (pp, n_layer, m, rail))
                    if n > bound:
                        report(capfd, 3, False,
                               f"{n} windows > bound {bound} at pp={pp} "
                               f"L={n_layer} M={m} rail={rail}")
    dt = time.monotonic() - t0
    report(capfd, 3, dt < 30.0,
           f"window counts within the analytic bound over the 18-point grid "
           f"(tightest {worst[0]} <= {worst[1]} at pp,L,M,rail={worst[2]}) "
           f"in {dt:.1f}s")


def test_criterion_4_zero_delay_equivalence(capfd):
    worst = 0.0
    for pp, dp, n_layer, m in ((2, 2, 8, 2), (4, 1, 8, 3), (1, 4, 4, 2),
                               (2, 2, 32, 4), (3, 2, 9, 2)):
        params = make_params(pp=pp, dp=dp, n_layer=n_layer, n_microbatch=m)
        ocs = simulate(generate_3d_schedule(params, make_topo(num_domains=pp * dp)),
                       make_topo(num_domains=pp * dp), REACTIVE)
        elec = simulate(
            generate_3d_schedule(params, make_topo(num_domains=pp * dp,
                                                   kind="electrical")),
            make_topo(num_domains=pp * dp, kind="electrical"), REACTIVE)
        rel = abs(ocs.makespan - elec.makespan) / elec.makespan
        worst = max(worst, rel)
    report(capfd, 4, worst <= 1e-9,
           f"zero-delay OCS equals the electrical baseline "
           f"(worst relative diff {worst:.2e})")


def test_criterion_5_monotonic_and_dominated(capfd, scenario):
    topo = build_topology(scenario.topology)
    dag = generate_3d_schedule(scenario.workload, topo)
    delays = (0.0, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1)
    rows = sweep_delay(dag, topo, delays, [REACTIVE, PROVISIONED])
    by = {(d, p): m for d, p, m, _ in rows}
    mono = all(by[(a, p)] <= by[(b, p)] + 1e-12
               for p in ("reactive", "provisioning")
               for a, b in zip(delays, delays[1:]))
    dominated = all(by[(d, "provisioning")] <= by[(d, "reactive")] + 1e-12
                    for d in delays)
    report(capfd, 5, mono and dominated,
           "makespan nondecreasing in delay and provisioning never worse "
           f"across {len(delays)} delays")


def test_criterion_6_overheads_at_100ms(capfd, scenario):
    topo = build_topology(scenario.topology)
    dag = generate_3d_schedule(scenario.workload, topo)
    base = simulate(dag, topo, REACTIVE, force_baseline=True)

    windows = []
    pre_rs = []
    for rail in range(topo.gpus_per_domain):
        start, end = base.event_times.start, base.event_times.end
        phases = segment_phases(dag, start, end, rail)
        rep = analyze_rail(dag, start, end, rail)
        rs_ids = {ph.id for ph in phases if ph.kind == "ReduceScatter"}
        windows.extend(rep.windows)
        pre_rs.extend(w for w in rep.windows if w.after_phase in rs_ids)
    frac_1ms = sum(1 for w in windows if w.size > 1e-3) / len(windows)
    mean_pre_rs = sum(w.size for w in pre_rs) / len(pre_rs)
    stats = classify_by_volume(windows, DEFAULT_CLASS_EDGES)
    vols = {s.label: sorted({w.next_volume_bytes for w in windows
                             if w.volume_class == s.label}) for s in stats}

    from dataclasses import replace
    topo100 = build_topology(replace(scenario.topology, reconfig_delay=0.1))
    noprov = simulate(dag, topo100, REACTIVE)
    prov = simulate(dag, topo100, PROVISIONED)
    oh_n = (noprov.makespan / base.makespan - 1) * 100
    oh_p = (prov.makespan / base.makespan - 1) * 100

    checks = {
        "frac>1ms": frac_1ms >= 0.75,
        "meanPreRS~1000ms": abs(mean_pre_rs - 1.0) <= 0.05,
        "sync<1MB": all(v < 1e6 for v in vols.get("<1e+06B", [1e9])),
        "sendrecv~64MB": any(abs(v - 64e6) / 64e6 < 0.01
                             for v in vols.get("[1e+06B,5e+08B)", [])),
        "ag~957MB": any(abs(v - 957e6) / 957e6 < 0.01
                        for v in vols.get("[5e+08B,2e+09B)", [])),
        "rs~3829MB": any(abs(v - 3829e6) / 3829e6 < 0.01
                         for v in vols.get(">=2e+09B", [])),
        "noprov in 6.5+-3pp": 3.5 <= oh_n <= 9.5,
        "prov in 3.5+-2pp": 1.5 <= oh_p <= 5.5,
    }
    failed = [k for k, v in checks.items() if not v]
    report(capfd, 6, not failed,
           f"calibrated scenario: {frac_1ms:.0%} windows > 1ms, pre-RS mean "
           f"{mean_pre_rs * 1e3:.0f}ms, overheads {oh_n:.2f}%/{oh_p:.2f}% "
           f"(reactive/provisioning) at 100ms"
           + (f"; FAILED {failed}" if failed else ""))


def test_criterion_7_econ_targets(capfd):
    from railsim import electrical_fabric_bom, ocs_fabric_bom, savings
    from railsim.cli import DEFAULT_ECON_CONFIG, load_econ_config

    econ, spec = load_econ_config(DEFAULT_ECON_CONFIG)
    topo = build_topology(spec)
    sv = savings(electrical_fabric_bom(topo, econ), ocs_fabric_bom(topo, econ))
    in_band = (abs(sv.cost_saving - 0.705) <= 0.10
               and abs(sv.power_saving - 0.9584) <= 0.04)

    rng = random.Random(1234)
    oracle_ok = True
    for _ in range(20):
        t = make_topo(num_domains=rng.randrange(2, 500),
                      gpus_per_domain=rng.randrange(1, 9),
                      nic_ports=rng.choice([1, 2, 4]), kind="electrical")
        bom = electrical_fabric_bom(t, econ)
        cost = sum(i.count * i.unit_cost for i in bom.items)
        power = sum(i.count * i.unit_power_w for i in bom.items)
        oracle_ok &= (bom.total_cost == pytest.approx(cost)
                      and bom.total_power_w == pytest.approx(power))
    report(capfd, 7, in_band and oracle_ok,
           f"cost saving {sv.cost_saving:.2%} (target 70.5% +-10pp), power "
           f"saving {sv.power_saving:.2%} (target 95.84% +-4pp), 20/20 BOM "
           f"oracle recomputations exact")


def _hash_dir(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def test_criterion_8_determinism(capfd, tmp_path):
    scn = str(tmp_path / "scn.ini")
    with open(scn, "w") as f:
        f.write("""\
[topology]
num_domains = 4
gpus_per_domain = 4
scaleup_bandwidth = 900e9
nic_ports = 2
nic_port_bandwidth = 25e9
rail_switch = ocs
reconfig_delay = 0.01
radix = 576
[workload]
pp = 2
dp = 2
tp = 4
n_layer = 8
n_microbatch = 2
bytes_per_layer_param = 1000000
bytes_activation = 500000
bytes_sync_allreduce = 10000
fwd_layer = 0.01
bwd_layer = 0.02
optim = 0.005
pre_stage = 0.001
[sweep]
delays = 0, 0.005, 0.01
""")
    hashes = []
    for run in ("r1", "r2"):
        d = tmp_path / run
        os.makedirs(d)
        assert main(["gen", "--scenario", scn,
                     "--out", str(d / "trace.csv")]) == 0
        assert main(["windows", "--scenario", scn, "--out-dir", str(d)]) == 0
        assert main(["sim", "--scenario", scn, "--out-dir", str(d)]) == 0
        assert main(["sweep", "--scenario", scn, "--out-dir", str(d),
                     "--jobs", "2"]) == 0
        assert main(["econ", "--out-dir", str(d)]) == 0
        assert main(["table4", "--out", str(d / "table4.csv")]) == 0
        hashes.append(_hash_dir(d))
    ok = hashes[0] == hashes[1] and len(hashes[0]) >= 8
    report(capfd, 8, ok,
           f"{len(hashes[0])} output files byte-identical across re-runs of "
           "all six commands")


def test_criterion_9_safety_invariants(capfd, scenario):
    topo_base = build_topology(scenario.topology)
    dag = generate_3d_schedule(scenario.workload, topo_base)
    from dataclasses import replace

    circuits_checked = 0
    for delay in (0.01, 0.1):
        for policy in (REACTIVE, PROVISIONED):
            topo = build_topology(replace(scenario.topology,
                                          reconfig_delay=delay))
            res = simulate(dag, topo, policy)
            circuits_checked += assert_circuit_invariants(res, topo)
    report(capfd, 9, circuits_checked > 0,
           f"no port sharing, no transfer during switching, degree within "
           f"NIC ports across {circuits_checked} circuit intervals "
           "(4 policy/delay combinations)")
