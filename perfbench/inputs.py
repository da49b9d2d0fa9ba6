"""Seeded inputs of the two benchmark workloads.

The seed scales the calibration of the shipped Llama3-8B-like scenario
(per-layer compute times and byte sizes) by factors drawn from [0.9, 1.1],
and for `shape-mix` it also draws the shapes and their switching delays.
The cluster shapes of `cli-mix` are fixed, so its event counts do not depend
on the seed.  The program under test only ever sees the INI and trace files
written here.

Run as a script to write one workload's inputs into a directory:

    python3 perfbench/inputs.py --workload cli-mix --seed 1 --dir D

`run.py` does so in a fresh process for every set-up repetition, so the
set-up's memory does not count in the workload's peak RSS.  Every INI
written is read back through `railsim.cli.load_scenario`, so set-up also
times the program's import and scenario parsing.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("cli-mix", "shape-mix")
SRC = Path(__file__).resolve().parent.parent / "src"

# Calibration of src/railsim/data/llama3_8b.ini, copied so that a change to
# the shipped data does not silently change the benchmark's inputs.
CALIBRATION = {
    "bytes_per_layer_param": 29_900_000,
    "bytes_activation": 16_000_000,
    "bytes_sync_allreduce": 100_000,
    "fwd_layer": 0.12,
    "bwd_layer": 0.04,
    "optim": 0.02,
    "pre_stage": 0.005,
}
SWEEP_DELAYS = (0.0, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1)
JITTER = 0.10
SHAPES_PER_MIX = 100


@dataclass(frozen=True)
class Shape:
    """One generator shape: pp x dp domains of G GPUs (tp = G)."""

    pp: int
    dp: int
    gpus: int
    nic_ports: int
    n_layer: int
    n_microbatch: int
    delay: float

    @property
    def events(self) -> int:
        return event_count(self.pp, self.dp, self.gpus, self.n_layer,
                           self.n_microbatch)


# 16x8 cluster; the shipped 4x4 scenario's shape for the sweep.
SIM_19K = Shape(pp=4, dp=4, gpus=8, nic_ports=2, n_layer=32, n_microbatch=8,
                delay=0.025)
SWEEP_1K = Shape(pp=2, dp=2, gpus=4, nic_ports=2, n_layer=32, n_microbatch=2,
                 delay=0.1)


def event_count(pp: int, dp: int, gpus: int, n_layer: int, n_microbatch: int) -> int:
    """Events `generate_3d_schedule` emits for one shape (two sync AllReduces).

    prep and optimizer per rank, AllGather and ReduceScatter per layer and
    rail, forward and backward per layer, microbatch and rank, SendRecv per
    stage boundary, TP AllReduce per microbatch and domain, sync AllReduce.
    """
    ranks = pp * dp * gpus
    m = n_microbatch
    tp_allreduce = 2 * m * pp * dp if gpus >= 2 else 0
    return (2 * ranks + 2 * gpus * n_layer + 2 * m * n_layer * dp * gpus
            + 2 * (pp - 1) * dp * gpus * m + tp_allreduce + 2 * gpus)


def calibration(seed: int) -> Dict[str, float]:
    """The shipped calibration, each value scaled by its own seeded factor."""
    rng = random.Random(f"calibration-{seed}")
    out: Dict[str, float] = {}
    for key, value in CALIBRATION.items():
        scaled = value * rng.uniform(1 - JITTER, 1 + JITTER)
        out[key] = int(round(scaled)) if isinstance(value, int) else scaled
    return out


def shape_space() -> List[Shape]:
    """Every feasible small shape, sorted by NIC port count, then event count.

    pp * dp in [2, 16] domains, G in {1, 2, 4}, a 2- or 4-port NIC,
    pp <= L <= 16 layers and M <= 4 microbatches.  The delay is drawn later.
    """
    shapes = []
    for domains in range(2, 17):
        for pp in range(1, domains + 1):
            if domains % pp:
                continue
            for gpus in (1, 2, 4):
                for nic in (2, 4):
                    for n_layer in range(pp, 17):
                        for m in range(1, 5):
                            shapes.append(Shape(pp, domains // pp, gpus, nic,
                                                n_layer, m, 0.0))
    shapes.sort(key=lambda s: (s.nic_ports, s.events, s.pp, s.dp, s.gpus,
                               s.n_layer, s.n_microbatch))
    return shapes


def draw_shapes(seed: int, n: int = SHAPES_PER_MIX) -> List[Shape]:
    """One shape from each of `n` equal strata of the shape space, then the
    largest 2-port shape of the space.

    Stratifying by NIC and event count keeps the work of a mix nearly the
    same for every seed, so host times compare across seeds.  Delays are
    uniform in [1 ms, 500 ms], one from each of `n` equal strata of that
    range, paired with the shapes in seeded order.  The top strata span
    3,424 to 8,584 events, and the largest shape of a mix sets the peak
    RSS; the fixed largest shape (its delay drawn from the whole range)
    makes that peak the same work for every seed.
    """
    space = shape_space()
    rng = random.Random(f"shapes-{seed}")
    delay_strata = list(range(n))
    rng.shuffle(delay_strata)
    picked = []
    for i in range(n):
        lo, hi = i * len(space) // n, (i + 1) * len(space) // n
        s = space[rng.randrange(lo, hi)]
        delay = 0.001 + 0.499 * (delay_strata[i] + rng.random()) / n
        picked.append(Shape(s.pp, s.dp, s.gpus, s.nic_ports, s.n_layer,
                            s.n_microbatch, delay))
    big = [s for s in space if s.nic_ports == 2][-1]
    picked.append(Shape(big.pp, big.dp, big.gpus, big.nic_ports, big.n_layer,
                        big.n_microbatch, rng.uniform(0.001, 0.5)))
    return picked


def scenario_ini(shape: Shape, cal: Dict[str, float],
                 delays: Optional[tuple] = None) -> str:
    lines = [
        "[topology]",
        f"num_domains = {shape.pp * shape.dp}",
        f"gpus_per_domain = {shape.gpus}",
        "scaleup_bandwidth = 900e9",
        f"nic_ports = {shape.nic_ports}",
        "nic_port_bandwidth = 25e9",
        "rail_switch = ocs",
        f"reconfig_delay = {shape.delay!r}",
        "radix = 576",
        "",
        "[workload]",
        f"pp = {shape.pp}",
        f"dp = {shape.dp}",
        f"tp = {shape.gpus}",
        f"n_layer = {shape.n_layer}",
        f"n_microbatch = {shape.n_microbatch}",
    ]
    lines += [f"{key} = {cal[key]!r}" for key in CALIBRATION]
    lines += ["", "[control]", "provisioning = true", "alpha = 1e-06"]
    if delays is not None:
        lines += ["", "[sweep]", "delays = " + ", ".join(repr(d) for d in delays)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Call:
    """One timed CLI call and what the benchmark knows about its input."""

    argv: tuple
    out_dir: str
    shape: Shape
    sweep: bool = False


def calls(workload: str, seed: int, d: str) -> List[Call]:
    """The CLI calls of one pass over the inputs in directory `d`."""
    out = os.path.join(d, "out")
    if workload == "cli-mix":
        sim, sweep, windows = (os.path.join(out, n) for n in ("sim", "sweep", "windows"))
        return [
            Call(("sim", "--scenario", os.path.join(d, "sim.ini"), "--out-dir", sim),
                 sim, SIM_19K),
            Call(("sweep", "--scenario", os.path.join(d, "sweep.ini"),
                  "--out-dir", sweep, "--jobs", "2"), sweep, SWEEP_1K, sweep=True),
            Call(("windows", "--trace", os.path.join(d, "trace.csv"),
                  "--out-dir", windows), windows, SIM_19K),
        ]
    if workload == "shape-mix":
        result = []
        for i, shape in enumerate(draw_shapes(seed)):
            ini = os.path.join(d, "shapes", f"s{i:03d}.ini")
            for prov in (False, True):
                o = os.path.join(out, f"s{i:03d}-{'prov' if prov else 'reac'}")
                flag = "--provisioning" if prov else "--no-provisioning"
                result.append(Call(("sim", "--scenario", ini, flag, "--out-dir", o),
                                   o, shape))
        return result
    raise ValueError(f"unknown workload {workload!r}")


def read_back(path: str, shape: Shape) -> None:
    """Parse a written INI with the CLI's own reader and check its shape."""
    from railsim.cli import load_scenario
    scn = load_scenario(path)
    w, t = scn.workload, scn.topology
    got = (w.pp, w.dp, w.tp, w.n_layer, w.n_microbatch, t.gpus_per_domain,
           t.nic_ports, t.reconfig_delay)
    want = (shape.pp, shape.dp, shape.gpus, shape.n_layer, shape.n_microbatch,
            shape.gpus, shape.nic_ports, shape.delay)
    if got != want:
        raise RuntimeError(f"{path} reads back as {got}, written as {want}")


def write_inputs(workload: str, seed: int, d: str) -> None:
    """Write the workload's inputs into `d` and read each INI back; cli-mix
    also runs `gen`."""
    cal = calibration(seed)
    os.makedirs(d, exist_ok=True)

    def put(name: str, text: str, shape: Shape) -> None:
        path = os.path.join(d, name)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        read_back(path, shape)

    if workload == "cli-mix":
        put("sim.ini", scenario_ini(SIM_19K, cal), SIM_19K)
        put("sweep.ini", scenario_ini(SWEEP_1K, cal, SWEEP_DELAYS), SWEEP_1K)
        from railsim.cli import main as railsim_main
        rc = railsim_main(["gen", "--scenario", os.path.join(d, "sim.ini"),
                           "--out", os.path.join(d, "trace.csv")])
        if rc != 0:
            raise RuntimeError(f"railsim gen exited {rc}")
    if workload == "shape-mix":
        os.makedirs(os.path.join(d, "shapes"), exist_ok=True)
        for i, shape in enumerate(draw_shapes(seed)):
            put(os.path.join("shapes", f"s{i:03d}.ini"), scenario_ini(shape, cal), shape)


def _main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    write_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
