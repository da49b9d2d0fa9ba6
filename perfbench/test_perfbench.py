"""Tests of the benchmark's own checks, inputs and metric tables.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from railsim import (ControlPolicy, build_topology,  # noqa: E402
                     generate_3d_schedule, simulate)
from railsim.cli import DEFAULT_SCENARIO, load_scenario  # noqa: E402
from railsim.model import TopologySpec  # noqa: E402

# (rail, rank, port, group, up, down) and (event, rank, port, start, end)
CLEAN_CIRCUITS = [(0, 0, 0, "a", 0.1, 1.0), (0, 0, 0, "b", 1.1, 2.0),
                  (0, 0, 1, "a", 0.1, 2.0)]
CLEAN_TRANSFERS = [("e1", 0, 0, 0.2, 0.9), ("e2", 0, 0, 1.1, 1.5)]


def test_clean_run_passes():
    assert checks.circuit_invariants(CLEAN_CIRCUITS, CLEAN_TRANSFERS, 0.1, 2) == []


def test_two_groups_on_one_port_fail():
    planted = CLEAN_CIRCUITS + [(0, 0, 0, "c", 0.5, 0.8)]
    bad = checks.circuit_invariants(planted, CLEAN_TRANSFERS, 0.1, 2)
    assert any("held by" in b for b in bad)


def test_transfer_while_switching_fails():
    planted = CLEAN_TRANSFERS + [("e3", 0, 0, 0.95, 1.05)]  # switching to b: [1.0, 1.1)
    bad = checks.circuit_invariants(CLEAN_CIRCUITS, planted, 0.1, 2)
    assert any("overlaps switching" in b for b in bad)


def test_transfer_outside_circuits_fails():
    outside = CLEAN_TRANSFERS + [("e3", 0, 1, 2.5, 2.6), ("e4", 0, 3, 0.5, 0.6)]
    bad = checks.circuit_invariants(CLEAN_CIRCUITS, outside, 0.1, 2)
    assert any("outside its circuits" in b for b in bad)
    assert any("never held a circuit" in b for b in bad)


def test_more_circuits_than_nic_ports_fail():
    planted = CLEAN_CIRCUITS + [(0, 0, 2, "d", 0.5, 0.8)]
    assert any("NIC has 2" in b for b in checks.circuit_invariants(planted, [], 0.1, 2))
    assert checks.circuit_invariants(planted, [], 0.1, 4) == []


def test_real_runs_pass():
    scn = load_scenario(DEFAULT_SCENARIO)
    topo = build_topology(scn.topology)
    dag = generate_3d_schedule(scn.workload, topo)
    for policy in (ControlPolicy(provisioning=False), ControlPolicy(provisioning=True)):
        res = simulate(dag, topo, policy)
        assert res.circuit_log and res.transfer_log
        assert checks.circuit_invariants(res.circuit_log, res.transfer_log,
                                         topo.rail_switch.reconfig_delay,
                                         topo.nic.ports) == []


def test_sweep_check_fails_on_planted_errors():
    delays = (0.0, 0.01, 0.1)
    good = [(d, p, 10.0 + d, 1 + d / 10) for d in delays
            for p in ("reactive", "provisioning")]
    assert checks.check_sweep(good, delays, 10.0) == []
    not_monotone = [(d, p, 10.5 if d == 0.01 else m, o) for d, p, m, o in good]
    assert any("falls" in b for b in checks.check_sweep(not_monotone, delays, 10.0))
    off_zero = [(d, p, 10.001 if d == 0 else m, o) for d, p, m, o in good]
    assert any("zero-delay" in b for b in checks.check_sweep(off_zero, delays, 10.0))
    assert any("below electrical" in b for b in checks.check_sweep(good, delays, 10.05))


def test_spec_useful_counts_used_circuits_only():
    class E:  # the fields of ReconfigLogEntry that spec_useful reads
        def __init__(self, time, group, delay, ports_changed):
            self.time, self.group, self.delay = time, group, delay
            self.ports_changed, self.speculative = ports_changed, True

    log = [E(0.0, "a", 0.1, 2), E(1.0, "b", 0.1, 1)]
    assert checks.spec_useful(log, CLEAN_CIRCUITS, CLEAN_TRANSFERS) == (2, 2)
    assert checks.spec_useful(log, CLEAN_CIRCUITS, CLEAN_TRANSFERS[:1]) == (1, 2)


def test_event_count_matches_generator():
    for s in random.Random(0).sample(inputs.shape_space(), 25) + [inputs.SWEEP_1K]:
        topo = build_topology(TopologySpec(s.pp * s.dp, s.gpus, 900e9, s.nic_ports,
                                           25e9, "ocs", 0.01, 576))
        params = replace(load_scenario(DEFAULT_SCENARIO).workload, pp=s.pp, dp=s.dp,
                         tp=s.gpus, n_layer=s.n_layer, n_microbatch=s.n_microbatch)
        assert len(generate_3d_schedule(params, topo)) == s.events
    assert inputs.SIM_19K.events == 18_960
    assert inputs.SWEEP_1K.events == 1_368


def test_inputs_follow_the_seed(tmp_path):
    assert inputs.draw_shapes(3) == inputs.draw_shapes(3)
    assert inputs.draw_shapes(3) != inputs.draw_shapes(4)
    shapes = inputs.draw_shapes(3)
    assert len(shapes) == inputs.SHAPES_PER_MIX + 1
    assert shapes[-1].events == max(s.events for s in inputs.shape_space())
    assert inputs.calibration(3) != inputs.calibration(4)
    for key, value in inputs.calibration(3).items():
        assert abs(value / inputs.CALIBRATION[key] - 1) <= inputs.JITTER + 1e-6
    inputs.write_inputs("cli-mix", 3, str(tmp_path))
    scn = load_scenario(str(tmp_path / "sweep.ini"))
    assert scn.delays == inputs.SWEEP_DELAYS
    assert scn.workload.compute_times["fwd_layer"] == inputs.calibration(3)["fwd_layer"]


def test_self_time_subtracts_children():
    outer = probes.Span(0, "cli.cmd_sim", None, "pass0", False)
    inner = probes.Span(1, "fabric.simulate", 0, "pass0", False)
    outer.start, outer.end, inner.start, inner.end = 0.0, 10.0, 2.0, 5.0
    assert probes.self_times([outer, inner]) == {0: 7.0, 1: 3.0}
    layers = probes.layer_times([outer, inner], ["pass0"])
    assert layers["cli.write_s"] == 7.0 and layers["fabric.simulate_s"] == 3.0


def test_metric_tables_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert bench["paths"] == [HERE.name] and os.path.isfile(HERE / "run.py")
