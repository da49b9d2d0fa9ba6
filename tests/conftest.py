"""Shared builders for the test suite."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from railsim import ControlPolicy, TopologySpec, WorkloadParams, build_topology

# CI runs the trace differential check (`test_workload.py`) with
# `--hypothesis-profile=ci`: ten times the examples of the default profile,
# which tier-1 runs.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)


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
    "too few fields": (
        "a,0,compute\n",
        "line 2: expected 10 fields, got 3"),
    "too many fields": (
        "a,0,compute,compute,,,0,,0.0,1.0,9\n",
        "line 2: expected 10 fields, got 11"),
    "empty event_id": (
        ",0,compute,compute,,,0,,0.0,1.0\n",
        "line 2: empty event_id"),
    "malformed bytes": (
        "a,0,compute,compute,,,1e3,,0.0,1.0\n",
        "line 2: malformed numeric field"),
    "malformed time": (
        "a,0,compute,compute,,,0,,0.0,1.0s\n",
        "line 2: malformed numeric field"),
    "collective without group_id": (
        "c,0,dp,collective,AllGather,,100,,,\n",
        "line 2: collective record without group_id"),
    "unknown kind": (
        "a,0,compute,barrier,,,0,,0.0,1.0\n",
        "line 2: unknown event kind 'barrier'"),
    "malformed #group line": (
        "#group,g,DP,0;2\n",
        "line 2: malformed #group line"),
    "non-integer group member": (
        "#group,g,DP,0;two,0\n",
        "line 2: non-integer group member or rail"),
    # In a held trace, `windows --trace` would copy rail 0's windows onto
    # rail -1.
    "group on a negative rail": (
        "#group,h,PP,0;2,-1\n"
        "a,0,compute,compute,,,0,,0.0,1.0\n",
        "line 2: group h has a negative member or rail"),
    "group with a negative member": (
        "#group,g,DP,0;-2,0\n",
        "line 2: group g has a negative member or rail"),
    "group with a repeated member": (
        "#group,g,DP,0;2;0,0\n",
        "line 2: group g has duplicate members"),
}


# Two blocks that hold on two rails: each block's rail-0 compute row on
# rank 0, then its twin on rank 1.
_A = "a.l0,0,s,compute,,,0,,0.0,1.0\na.l1,1,s,compute,,,0,,0.0,1.0\n"
_B = "b.l0,0,s,compute,,,0,a.l0,1.0,2.0\nb.l1,1,s,compute,,,0,a.l1,1.0,2.0\n"
_G = "#group,g.l0,DP,0;2,0\n#group,g.l1,DP,1;3,1\n"
# A block whose AllReduce starts at 0.0 on rank 0 stream s and at 5.0 on
# rank 2: the row starts at 5.0, its latest record's start, and so do its
# twin records, on rank 1 stream s too.
_AR = (_G + "A.l0,0,s,collective,AllReduce,g.l0,8,,0.0,1.0\n"
       "A.l0,2,t,collective,AllReduce,g.l0,8,,5.0,6.0\n"
       "A.l1,1,s,collective,AllReduce,g.l1,8,,5.0,6.0\n"
       "A.l1,3,t,collective,AllReduce,g.l1,8,,5.0,6.0\n")

# Traces for each condition of the held form (see the `trace` module), each
# with the rail count it loads with: 1 when the condition fails and the
# trace loads row by row, 0 when the row-by-row parse rejects it.
HELD_BREAKS = {
    "two blocks": (_A + _B, 2),
    "one block on three rails": (_A + "a.l2,2,s,compute,,,0,,0.0,1.0\n", 3),
    "a later twin pass of the first block differs": (
        "a.l0,0,s,compute,,,0,,0.0,1.0\nc.l0,3,s,compute,,,0,,0.0,1.0\n"
        "a.l1,1,s,compute,,,0,,0.0,1.0\nc.l1,4,s,compute,,,0,,0.0,1.0\n"
        "a.l2,2,s,compute,,,0,,0.0,1.0\nc.l2,5,s,compute,,,0,,0.0,1.5\n", 1),
    "a record of a block whose twins were read": (
        _A + "a.l0,2,s,compute,,,0,,0.0,1.0\n", 1),
    "a scale-out collective spans rails": (
        "#group,g,DP,0;1,0;1\na.l0,0,s,compute,,,0,,0.0,1.0\n"
        "c,0,dp,collective,AllGather,g,8,,0.0,1.0\nc,1,dp,collective,AllGather,g,8,,0.0,1.0\n"
        "a.l1,1,s,compute,,,0,,0.0,1.0\n", 1),
    "a rail-0 row depends on a spanning row": (
        "t,0,tp,compute,,,0,,0.0,1.0\n"
        "a.l0,0,s,compute,,,0,t,1.0,2.0\na.l1,1,s,compute,,,0,t,1.0,2.0\n", 1),
    "a rail-0 row ends before it starts": (
        "a.l0,0,s,compute,,,0,,5.0,\na.l0,2,t,compute,,,0,,0.0,1.0\n"
        "a.l1,1,s,compute,,,0,,5.0,1.0\na.l1,3,t,compute,,,0,,5.0,1.0\n", 0),
    "rail-0 rows out of row order on a (stream, rank)": (
        "y.l0,2,t,compute,,,0,,0.0,1.0\nx.l0,0,s,compute,,,0,,0.0,1.0\n"
        "y.l0,0,s,compute,,,0,,0.0,1.0\n"
        "y.l1,1,s,compute,,,0,x.l1,0.0,1.0\ny.l1,3,t,compute,,,0,x.l1,0.0,1.0\n"
        "x.l1,1,s,compute,,,0,,0.0,1.0\n", 0),
    "a rail-0 row starts before one of an earlier block": (
        _AR + "B.l0,0,s,compute,,,0,A.l0,2.0,3.0\nB.l1,1,s,compute,,,0,A.l1,2.0,3.0\n", 0),
    "a rail-0 row starts after one of an earlier block": (
        _AR + "B.l0,0,s,compute,,,0,A.l0,7.0,8.0\nB.l1,1,s,compute,,,0,A.l1,7.0,8.0\n", 2),
    "a group off rail 0": (
        "#group,g.l0,DP,0;2,1\n#group,g.l1,DP,1;3,1\n"
        "c.l0,0,dp,collective,AllGather,g.l0,8,,0.0,1.0\n"
        "c.l0,2,dp,collective,AllGather,g.l0,8,,0.0,1.0\n"
        "c.l1,1,dp,collective,AllGather,g.l1,8,,0.0,1.0\n"
        "c.l1,3,dp,collective,AllGather,g.l1,8,,0.0,1.0\n", 1),
    "a twin group not moved from rail 0": (
        "#group,g.l0,DP,0;2,0\n#group,g.l1,DP,3;1,1\n"
        "c.l0,0,dp,collective,AllGather,g.l0,8,,0.0,1.0\n"
        "c.l0,2,dp,collective,AllGather,g.l0,8,,0.0,1.0\n"
        "c.l1,1,dp,collective,AllGather,g.l1,8,,0.0,1.0\n"
        "c.l1,3,dp,collective,AllGather,g.l1,8,,0.0,1.0\n", 1),
    "a twin record of a later block differs": (
        _A + "b.l0,0,s,compute,,,0,a.l0,1.0,2.0\nb.l1,1,s,compute,,,0,a.l1,1.0,2.5\n", 1),
    "a later block has fewer rails": (
        _A + "a.l2,2,s,compute,,,0,,0.0,1.0\n" + _B, 1),
    "rows after the last block": (_A + "b.l0,0,s,compute,,,0,a.l0,1.0,2.0\n", 1),
    "a rail-0 rank no multiple of the rail count": (
        "a.l0,1,s,compute,,,0,,0.0,1.0\na.l1,2,s,compute,,,0,,0.0,1.0\n", 1),
    "a spanning row on a rail-0 row's stream": (
        "a.l0,0,s,compute,,,0,,0.0,1.0\na.l1,1,s,compute,,,0,,0.0,1.0\n"
        "T,1,s,compute,,,0,a.l0;a.l1,1.0,2.0\n"
        "b.l0,0,s,compute,,,0,a.l0,2.0,3.0\nb.l1,1,s,compute,,,0,a.l1,2.0,3.0\n", 1),
    "a spanning row on a stream of its own": (
        "a.l0,0,s,compute,,,0,,0.0,1.0\na.l1,1,s,compute,,,0,,0.0,1.0\n"
        "T,1,tp,compute,,,0,a.l0;a.l1,1.0,2.0\n"
        "b.l0,0,s,compute,,,0,a.l0,2.0,3.0\nb.l1,1,s,compute,,,0,a.l1,2.0,3.0\n", 2),
    "a spanning row names a twin of no rail": (
        "a.l0,0,s,compute,,,0,,0.0,1.0\nt,0,tp,compute,,,0,a.l0;a.l1;a.l2,1.0,2.0\n"
        "a.l1,1,s,compute,,,0,,0.0,1.0\n", 0),
    "a spanning row misses a rail's twin": (
        "a.l0,0,s,compute,,,0,,0.0,1.0\nt,0,tp,compute,,,0,a.l0,1.0,2.0\n"
        "a.l1,1,s,compute,,,0,,0.0,1.0\n", 1),
    "a spanning row names rail-0 rows of two blocks": (
        _A + "b.l0,0,s,compute,,,0,a.l0,1.0,2.0\n"
        "t,0,tp,compute,,,0,a.l0;a.l1;b.l0;b.l1,2.0,3.0\n"
        "b.l1,1,s,compute,,,0,a.l1,1.0,2.0\n", 1),
    # Rail-0 records that leave the template's order: it is built from the
    # rows when the block closes.
    "a rail-0 row's records out of rank order": (
        _G + "A.l0,2,t,collective,AllReduce,g.l0,8,,0.0,1.0\n"
        "A.l0,0,s,collective,AllReduce,g.l0,8,,0.0,1.0\n"
        "A.l1,1,s,collective,AllReduce,g.l1,8,,0.0,1.0\n"
        "A.l1,3,t,collective,AllReduce,g.l1,8,,0.0,1.0\n", 2),
    "a rail-0 row's records apart": (
        "x.l0,0,s,compute,,,0,,0.0,1.0\ny.l0,4,s,compute,,,0,,0.0,1.0\n"
        "x.l0,2,t,compute,,,0,,0.0,1.0\nx.l1,1,s,compute,,,0,,0.0,1.0\n"
        "x.l1,3,t,compute,,,0,,0.0,1.0\ny.l1,5,s,compute,,,0,,0.0,1.0\n", 2),
    # x's start rises to 0.5 after y was read; the parse checks rows as it
    # reads them, so it gives up, though no later row shares a (stream,
    # rank) with x.
    "a rail-0 row's start rises after a later row's record": (
        "x.l0,0,s,compute,,,0,,0.0,1.0\ny.l0,4,s,compute,,,0,,0.0,1.0\n"
        "x.l0,2,t,compute,,,0,,0.5,1.0\nx.l1,1,s,compute,,,0,,0.5,1.0\n"
        "x.l1,3,t,compute,,,0,,0.5,1.0\ny.l1,5,s,compute,,,0,,0.0,1.0\n", 1),
    "a spanning id starts as a rail-0 id less its 0": (
        "a.l0,0,s,compute,,,0,,0.0,1.0\na.lx,0,tp,compute,,,0,a.l0;a.l1,1.0,2.0\n"
        "a.l1,1,s,compute,,,0,,0.0,1.0\n", 1),
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
