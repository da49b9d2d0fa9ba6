"""Shared builders for the test suite."""

import importlib.util
import sys
from pathlib import Path

import pytest

from railsim import ControlPolicy, TopologySpec, WorkloadParams, build_topology


def make_topo(num_domains=4, gpus_per_domain=4, nic_ports=2, kind="ocs",
              delay=0.0, radix=576, nic_bw=25e9, scaleup_bw=900e9):
    return build_topology(TopologySpec(
        num_domains=num_domains, gpus_per_domain=gpus_per_domain,
        scaleup_bandwidth=scaleup_bw, nic_ports=nic_ports,
        nic_port_bandwidth=nic_bw, rail_switch_kind=kind,
        reconfig_delay=delay, radix=radix))


def make_params(pp=2, dp=2, tp=4, n_layer=8, n_microbatch=2,
                param_bytes=1_000_000, act_bytes=500_000, sync_bytes=10_000,
                fwd=0.01, bwd=0.02, optim=0.005, pre=0.001):
    return WorkloadParams(
        pp=pp, dp=dp, tp=tp, n_layer=n_layer, n_microbatch=n_microbatch,
        bytes_per_layer_param=param_bytes, bytes_activation=act_bytes,
        bytes_sync_allreduce=sync_bytes,
        compute_times={"fwd_layer": fwd, "bwd_layer": bwd,
                       "optim": optim, "pre_stage": pre})


REACTIVE = ControlPolicy(provisioning=False)
PROVISIONED = ControlPolicy(provisioning=True)

# The benchmark's calibration (the shipped llama3_8b.ini) in `make_params`'s
# keywords.
CALIBRATION = dict(param_bytes=29_900_000, act_bytes=16_000_000, sync_bytes=100_000,
                   fwd=0.12, bwd=0.04, optim=0.02, pre=0.005)


def assert_circuit_invariants(res, topo, eps=1e-12):
    """Assert a circuit run's safety invariants: no port carries two
    circuits at once, no transfer runs on a port while it switches, and no
    rank holds more circuits than its NIC has ports.  Returns the number of
    circuit intervals checked."""
    delay = topo.rail_switch.reconfig_delay
    by_port = {}
    for rail, rank, port, group, up, down in res.circuit_log:
        assert down >= up - eps
        by_port.setdefault((rank, port), []).append((up, down, group))
    transfers = {}
    for eid, rank, port, start, end in res.transfer_log:
        transfers.setdefault((rank, port), []).append((start, end))
    checked = 0
    for key, ivals in by_port.items():
        ivals.sort()
        # (a) no port sharing between concurrent circuits
        for (u1, d1, _), (u2, d2, _) in zip(ivals, ivals[1:]):
            assert u2 >= d1 - eps, f"overlapping circuits on {key}"
        # (b) reconfiguration never overlaps a transfer on the port
        for up, down, _ in ivals:
            for s, e in transfers.get(key, ()):
                assert e <= up - delay + eps or s >= up - eps, \
                    f"transfer [{s},{e}] inside reconfig on {key}"
        checked += len(ivals)
    # (c) concurrent circuits per rank never exceed NIC ports
    per_rank = {}
    for rail, rank, port, group, up, down in res.circuit_log:
        per_rank.setdefault(rank, []).append((up, down))
    for rank, ivals in per_rank.items():
        for t in sorted({t for iv in ivals for t in iv}):
            live = sum(1 for u, d in ivals if u <= t < d)
            assert live <= topo.nic.ports, f"rank {rank} holds {live} circuits at t={t}"
    return checked

HEADER = ("event_id,rank,stream,kind,coll_kind,group_id,bytes,dep_ids,"
          "observed_start_s,observed_end_s\n")

# Traces the circuit model cannot place, on 4 domains x 2 GPUs (rank r on
# rail r % 2).
BAD_TRACES = {
    "collective covers part of its group": (
        "#group,g,DP,0;2,0\n"
        "c,0,dp,collective,AllGather,g,100,,,\n"),
    "group members off the declared rail": (
        "#group,g,DP,0;1,0\n"
        "c,0,dp,collective,AllGather,g,100,,,\n"
        "c,1,dp,collective,AllGather,g,100,,,\n"),
    "group spans two rails": (
        "#group,g,DP,0;1,0;1\n"
        "c,0,dp,collective,AllGather,g,100,,,\n"
        "c,1,dp,collective,AllGather,g,100,,,\n"),
    "rank outside the topology": (
        "a,0,compute,compute,,,0,,0.0,1.0\n"
        "b,8,compute,compute,,,0,a,1.0,2.0\n"),
    "a twin's rank outside the topology": (
        "a.l0,0,compute,compute,,,0,,0.0,1.0\n"
        "a.l1,1,compute,compute,,,0,,0.0,1.0\n"
        "a.l2,2,compute,compute,,,0,,0.0,1.0\n"
        "b.l0,6,compute,compute,,,0,a.l0,1.0,2.0\n"
        "b.l1,7,compute,compute,,,0,a.l1,1.0,2.0\n"
        "b.l2,8,compute,compute,,,0,a.l2,1.0,2.0\n"),
}

# Traces the parser rejects, each with a fragment of its error message.
# Bodies are written as UTF-8 with surrogate escapes, so "\udcff" stands for
# the raw byte 0xff.
REJECTED_TRACES = {
    "text is not UTF-8": (
        "a,0,compute,compute,,,0,,0.0,1.0\n"
        "b\udcff,1,compute,compute,,,0,a,1.0,2.0\n",
        "is not UTF-8 text"),
    "dependency on an unknown event": (
        "a,0,compute,compute,,,0,,0.0,1.0\n"
        "b,1,compute,compute,,,0,typo_of_a,1.0,2.0\n",
        "b depends on unknown event typo_of_a"),
    "dependency cycle": (
        "a,0,compute,compute,,,0,b,,\n"
        "b,1,compute,compute,,,0,a,,\n",
        "cycle"),
    "observed start goes back in time": (
        "a,0,compute,compute,,,0,,1.0,2.0\n"
        "b,0,compute,compute,,,0,,0.5,1.5\n",
        "line 3: b starts at 0.5"),
    "record ends before it starts": (
        "a,0,compute,compute,,,0,,2.0,1.0\n",
        "line 2: a ends at 1.0, before its start 2.0"),
    "records disagree on coll_kind": (
        "#group,g,DP,0;2,0\n"
        "c,0,dp,collective,AllGather,g,100,,,\n"
        "c,2,dp,collective,AllReduce,g,100,,,\n",
        "line 4: record of c disagrees"),
    "negative bytes": (
        "#group,g,DP,0;2,0\n"
        "c,0,dp,collective,AllGather,g,-100000000,,,\n"
        "c,2,dp,collective,AllGather,g,-100000000,,,\n",
        "line 3: c has negative bytes -100000000"),
    "negative rank": (
        "a,0,compute,compute,,,0,,0.0,1.0\n"
        "b,-1,compute,compute,,,0,a,1.0,2.0\n",
        "line 3: negative rank -1"),
    "observed time is nan": (
        "a,0,compute,compute,,,0,,0.0,nan\n",
        "line 2: a has a non-finite observed time"),
    "observed time is infinite": (
        "a,0,compute,compute,,,0,,0.0,1.0\n"
        "b,0,compute,compute,,,0,,1.0,inf\n",
        "line 3: b has a non-finite observed time"),
}


@pytest.fixture(scope="session")
def shipped_scenario_path():
    import railsim.cli
    return railsim.cli.DEFAULT_SCENARIO


@pytest.fixture(scope="session")
def shipped_econ_path():
    import railsim.cli
    return railsim.cli.DEFAULT_ECON_CONFIG


def perfbench_inputs():
    """The benchmark's input module, `perfbench/inputs.py`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs
