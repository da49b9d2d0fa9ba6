"""Shared builders for the test suite."""

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
}

# Traces the parser rejects, each with a fragment of its error message.
REJECTED_TRACES = {
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
}


@pytest.fixture(scope="session")
def shipped_scenario_path():
    import railsim.cli
    return railsim.cli.DEFAULT_SCENARIO


@pytest.fixture(scope="session")
def shipped_econ_path():
    import railsim.cli
    return railsim.cli.DEFAULT_ECON_CONFIG
