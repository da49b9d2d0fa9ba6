"""The controller scoreboard: the benchmark's shape-mix shapes of eight
seeds, each run reactive and provisioned, checked against a committed
reference.

For each seed in `SEEDS`, every shape that `perfbench/inputs.py` draws (100
plus the largest) is generated with that seed's calibration, prepared once
and simulated reactive and provisioned at its drawn delay, as `railsim sim`
runs it: 808 pairs, 1,616 calls.  The script prints

  * the calls that raised an error (`ConflictDeadlock`),
  * the pairs that run slower provisioned than reactive,
  * the worst provisioned/reactive makespan ratio,
  * the hidden share, sum(reactive - provisioned) / sum(reactive -
    electrical) over the pairs whose two calls finish,
  * every call whose result differs from `scoreboard_reference.txt`, which
    holds one line per call: its name, then its makespan as `repr` text or
    its error's class name.

Run it from the repository root:

    python tests/scoreboard.py          # exit 1 if any call moved
    python tests/scoreboard.py --write  # rewrite the reference

A change that moves a makespan rewrites the reference and lists each moved
call.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from railsim import (ControlPolicy, RailsimError, TopologySpec, WorkloadParams,
                     build_topology, generate_3d_schedule, simulate)
from railsim.fabric import Prepared

from conftest import perfbench_inputs

SEEDS = (1, 2, 3, 5, 7, 11, 23, 31)
REFERENCE = Path(__file__).with_name("scoreboard_reference.txt")
ALPHA = 1e-6  # the `[control] alpha` of every shape-mix scenario
POLICIES = (("reac", ControlPolicy(provisioning=False, alpha=ALPHA)),
            ("prov", ControlPolicy(provisioning=True, alpha=ALPHA)))
COMPUTE_KEYS = ("fwd_layer", "bwd_layer", "optim", "pre_stage")


def run(seeds=SEEDS):
    """({call: makespan or error class name}, {name: (shape, electrical
    makespan)}) over the shapes of `seeds`.  A shape is named `seed/sNNN`
    as its INI file is in the benchmark, and a call `seed/sNNN-reac` or
    `-prov`."""
    inputs = perfbench_inputs()
    results, shapes = {}, {}
    for seed in seeds:
        cal = inputs.calibration(seed)
        for i, shape in enumerate(inputs.draw_shapes(seed)):
            topo = build_topology(TopologySpec(
                num_domains=shape.pp * shape.dp, gpus_per_domain=shape.gpus,
                scaleup_bandwidth=900e9, nic_ports=shape.nic_ports,
                nic_port_bandwidth=25e9, rail_switch_kind="ocs",
                reconfig_delay=shape.delay, radix=576))
            params = WorkloadParams(
                pp=shape.pp, dp=shape.dp, tp=shape.gpus, n_layer=shape.n_layer,
                n_microbatch=shape.n_microbatch,
                bytes_per_layer_param=cal["bytes_per_layer_param"],
                bytes_activation=cal["bytes_activation"],
                bytes_sync_allreduce=cal["bytes_sync_allreduce"],
                compute_times={key: cal[key] for key in COMPUTE_KEYS})
            dag = generate_3d_schedule(params, topo)
            prepared = Prepared(dag, topo, ALPHA)
            name = f"{seed}/s{i:03d}"
            shapes[name] = (shape, prepared.baseline_makespan)
            for label, policy in POLICIES:
                try:
                    result = simulate(dag, topo, policy, prepared=prepared).makespan
                except RailsimError as e:
                    result = type(e).__name__
                results[f"{name}-{label}"] = result
    return results, shapes


def reference_lines(results):
    """The reference's text of `results`: one `call value` line each."""
    return [f"{call} {value!r}" if isinstance(value, float) else f"{call} {value}"
            for call, value in results.items()]


def moved(results, reference):
    """The lines of `results` that differ from the `reference` lines, each
    as `call: reference -> now`."""
    want = dict(line.split(" ", 1) for line in reference)
    got = dict(line.split(" ", 1) for line in reference_lines(results))
    return [f"{call}: {want.get(call)} -> {got.get(call)}"
            for call in sorted(want.keys() | got.keys()) if want.get(call) != got.get(call)]


def report(results, shapes):
    """The scoreboard's summary lines."""
    errors = [call for call, value in results.items() if not isinstance(value, float)]
    losses, ratios = [], []
    saved = exposed = 0.0
    for name, (shape, base) in shapes.items():
        reac, prov = results[f"{name}-reac"], results[f"{name}-prov"]
        if not (isinstance(reac, float) and isinstance(prov, float)):
            continue
        ratios.append((prov / reac, name))
        if prov > reac:
            losses.append(f"{name} {prov / reac:.3f}x, pp={shape.pp} dp={shape.dp} "
                          f"G={shape.gpus} L={shape.n_layer} M={shape.n_microbatch} "
                          f"{shape.nic_ports}-port")
        saved += reac - prov
        exposed += reac - base
    worst, worst_name = max(ratios)
    return [
        f"calls: {len(results)} ({len(shapes)} pairs)",
        f"errors: {len(errors)}"
        + "".join(f"\n  {call} {results[call]}" for call in errors),
        f"losses (provisioned slower than reactive): {len(losses)}"
        + "".join(f"\n  {loss}" for loss in losses),
        f"worst provisioned/reactive: {worst:.3f}x on {worst_name}",
        f"hidden share: {saved / exposed:.3f}",
    ]


def main(argv):
    if argv not in ([], ["--write"]):
        print("usage: python tests/scoreboard.py [--write]", file=sys.stderr)
        return 2
    results, shapes = run()
    print("\n".join(report(results, shapes)))
    if argv:
        REFERENCE.write_text("\n".join(reference_lines(results)) + "\n")
        print(f"wrote {len(results)} lines to {REFERENCE.name}")
        return 0
    diff = moved(results, REFERENCE.read_text().splitlines())
    print(f"moved against {REFERENCE.name}: {len(diff)}"
          + "".join(f"\n  {line}" for line in diff))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
