#!/usr/bin/env python3
"""railsim benchmark: seeded CLI workloads, checked outputs, host-time metrics.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0

Drives `railsim.cli.main` in this process from the checkout's `src/`, on the
inputs that `inputs.py` writes from the seed.  Set-up is repeated in fresh
processes and its median time reported.  Timed passes over the workload's
CLI calls repeat for `--seconds` (at least three passes); each call's time
is its fastest pass.  After the timer stops, one more pass captures what
the checks need; every output is checked and its sha256 printed.
`--trace 1` records per-layer spans instead of the end-to-end metrics.  The
last line of stdout is one JSON object; see README.md for the metrics and
why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

import checks
import inputs
import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 3  # at least; cheap set-ups repeat up to SETUP_MAX_REPS within 1 s
SETUP_MAX_REPS = 15
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed beside the host metrics; not gated because they are 0 or undefined
# on some workloads (see README.md).  Traced runs report them as metrics.
SIMULATED = {
    "failed_share": "ratio",
    "overhead_pct": "%",
    "hidden_share": "ratio",
    "prov_loses_share": "ratio",
}
PER_LAYER = {
    "workload.generate_s": "s",
    "workload.events": "count",
    "fabric.baseline_s": "s",
    "fabric.simulate_s": "s",
    "fabric.simulate_calls": "count",
    "fabric.engine_s": "s",
    "fabric.sweep_s": "s",
    "fabric.sweep_parallelism": "ratio",
    "control.profile_s": "s",
    "control.reconfigs": "count",
    "control.spec_reconfigs": "count",
    "control.ports_changed": "count",
    "control.evictions": "count",
    "control.spec_useful_ratio": "ratio",
    "control.circuit_wait_s": "s",
    "control.deadlocks": "count",
    "trace.load_s": "s",
    "trace.save_s": "s",
    "trace.bytes": "bytes",
    "windows.analyze_s": "s",
    "windows.windows": "count",
    "windows.overlaps": "count",
    "cli.scenario_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "traced.wall_s": "s",
    **SIMULATED,
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_railsim():
    """Import railsim from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import railsim.cli
    except ImportError as e:
        fail(f"cannot import railsim from {SRC}: {e}")
    if Path(railsim.__file__).resolve().parent.parent != SRC:
        fail(f"railsim imported from {railsim.__file__}, not from {SRC}")
    return railsim


def file_digests(d: str) -> Dict[str, str]:
    """sha256 of every file under `d`, keyed by relative path."""
    out = {}
    for parent, dirs, files in os.walk(d):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(parent, name)
            h = hashlib.sha256()
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            out[os.path.relpath(path, d)] = h.hexdigest()
    return out


def combined_digests(per_call: List[Dict[str, str]]) -> Dict[str, str]:
    """One digest per output file name: the file's own sha256 when one call
    writes it, else the sha256 of all calls' digests in call order."""
    out = {}
    for n in sorted({n for d in per_call for n in d}):
        own = [d[n] for d in per_call if n in d]
        out[n] = own[0] if len(own) == 1 else hashlib.sha256(
            "".join(d.get(n, "-") for d in per_call).encode()).hexdigest()
    return out


def invoke(railsim, argv) -> tuple:
    """One CLI call: exit code, host seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = railsim.cli.main(list(argv))
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def set_up(args, d: Path) -> tuple:
    """Write the inputs several times in fresh processes; (times, digests).

    No timeout: with one, `subprocess` polls the child in steps of up to
    50 ms, which would quantize the set-up times.
    """
    times, digests = [], []
    while len(times) < SETUP_REPS or (sum(times) < 1.0 and len(times) < SETUP_MAX_REPS):
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload",
                        args.workload, "--seed", str(args.seed), "--dir", str(d)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        digests.append(file_digests(str(d)))
    return times, digests


class Electrical:
    """Electrical-rail makespan of a scenario, from the library, cached."""

    def __init__(self, railsim):
        self.railsim = railsim
        self.cache: Dict[str, tuple] = {}

    def __call__(self, ini: str) -> tuple:
        if ini not in self.cache:
            rs = self.railsim
            scn = rs.cli.load_scenario(ini)
            topo = rs.model.build_topology(replace(scn.topology, rail_switch_kind="electrical"))
            dag = rs.workload.generate_3d_schedule(scn.workload, topo)
            res = rs.fabric.simulate(dag, topo, rs.fabric.ControlPolicy(alpha=scn.alpha))
            self.cache[ini] = (res.makespan, len(dag.events))
        return self.cache[ini]


def scenario_of(call: inputs.Call) -> str:
    return call.argv[call.argv.index("--scenario") + 1]


def check_call(call: inputs.Call, recs: List[dict], stdout: str,
               electrical: Electrical, railsim) -> tuple:
    """Violations of one successful call, and the simulated runs it checked."""
    bad: List[str] = []
    done = [r for r in recs if r["error"] is None]
    if call.argv[0] == "windows":
        s = call.shape
        bound = railsim.windows.eq1_bound(s.pp, s.n_layer, s.n_microbatch, False, False)
        return checks.check_windows_outputs(call.out_dir, stdout, s.gpus, bound), []
    elec, events = electrical(scenario_of(call))
    if events != call.shape.events:
        bad.append(f"generator made {events} events, expected {call.shape.events}")
    for r in done:
        bad += checks.circuit_invariants(r["circuit_log"], r["transfer_log"],
                                         r["delay"], r["nic_ports"])
        bad += checks.not_below(r["makespan"], elec, "simulated")
        if abs(r["overhead"] * elec - r["makespan"]) > checks.REL * r["makespan"]:
            bad.append(f"overhead {r['overhead']!r} is not makespan / electrical")
        if r["events"] != call.shape.events:
            bad.append(f"simulated {r['events']} events, expected {call.shape.events}")
    if call.sweep:
        rows = checks.sweep_rows(os.path.join(call.out_dir, "sweep.csv"))
        bad += checks.check_sweep(rows, inputs.SWEEP_DELAYS, elec)
        if done and len(done) != len(rows):
            bad.append(f"{len(done)} simulate calls for {len(rows)} sweep rows")
    elif len(done) == 1:
        bad += checks.check_sim_outputs(call.out_dir, stdout, done[0]["makespan"],
                                        len(done[0]["reconfig_log"]))
    elif done:
        bad.append(f"one sim call ran simulate {len(done)} times")
    return bad, done


def sim_metrics(workload: str, p: "Passes", electrical: Electrical) -> dict:
    """overhead_pct, hidden_share, prov_loses_share (None where undefined)."""
    out: Dict[str, Optional[float]] = dict.fromkeys(
        ("overhead_pct", "hidden_share", "prov_loses_share"))

    def makespan(i: int) -> Optional[float]:
        done = [r["makespan"] for r in p.records[i] if r["error"] is None]
        return done[-1] if p.rcs[i][-1] == 0 and done else None

    if workload == "cli-mix" and makespan(0) is not None:
        elec, _ = electrical(scenario_of(p.calls[0]))
        out["overhead_pct"] = (makespan(0) / elec - 1) * 100
    if workload == "cli-mix" and p.rcs[1][-1] == 0:
        elec, _ = electrical(scenario_of(p.calls[1]))
        rows = checks.sweep_rows(os.path.join(p.calls[1].out_dir, "sweep.csv"))
        by = {(d, pol): m for d, pol, m, _o in rows}
        nz = [d for d in inputs.SWEEP_DELAYS if d > 0]
        if all((d, pol) in by for d in nz for pol in ("reactive", "provisioning")):
            hidden = sum(by[(d, "reactive")] - by[(d, "provisioning")] for d in nz)
            cost = sum(by[(d, "reactive")] - elec for d in nz)
            out["hidden_share"] = hidden / cost if cost else None
    if workload == "shape-mix":
        loses = 0
        for reac in range(0, len(p.calls), 2):
            m_reac, m_prov = makespan(reac), makespan(reac + 1)
            if p.rcs[reac + 1][-1] != 0 or (m_reac is not None and m_prov is not None
                                           and m_prov > m_reac):
                loses += 1
        out["prov_loses_share"] = loses / (len(p.calls) // 2)
    return out


def control_metrics(recs: List[dict]) -> dict:
    """Controller counts of one pass, from the captured SimResults."""
    m = dict.fromkeys(("control.reconfigs", "control.spec_reconfigs",
                       "control.ports_changed", "control.evictions",
                       "control.circuit_wait_s", "control.deadlocks"), 0)
    useful = spec = 0
    for r in recs:
        if r["error"] is not None:
            m["control.deadlocks"] += r["error"] == "ConflictDeadlock"
            continue
        log = r["reconfig_log"]
        m["control.reconfigs"] += len(log)
        m["control.spec_reconfigs"] += sum(1 for e in log if e.speculative)
        m["control.ports_changed"] += sum(e.ports_changed for e in log)
        m["control.evictions"] += sum(1 for c in r["circuit_log"]
                                      if c[5] < r["makespan"] - checks.EPS)
        u, s = checks.spec_useful(log, r["circuit_log"], r["transfer_log"])
        useful, spec = useful + u, spec + s
        times = r["result"].event_times
        for eid in {t[0] for t in r["transfer_log"]}:
            t = times[eid]
            m["control.circuit_wait_s"] += t.start - max(t.starts.values())
    m["control.spec_useful_ratio"] = useful / spec if spec else 0.0
    return m


class Passes:
    """The passes over a workload's calls: timed ones, then one check pass.

    Per call: the time of every timed pass, the exit code and output digests
    of every pass, and the simulate records and console output of the check
    pass.  Timed passes keep no records, so the peak RSS taken after them
    holds no logs of the benchmark's own.
    """

    def __init__(self, calls: List[inputs.Call]):
        n = len(calls)
        self.calls = calls
        self.times: List[List[float]] = [[] for _ in range(n)]
        self.rcs: List[List[int]] = [[] for _ in range(n)]
        self.digests: List[List[dict]] = [[] for _ in range(n)]
        self.records: List[List[dict]] = [[] for _ in range(n)]
        self.outs = [("", "")] * n
        self.count = 0

    def run(self, railsim, probe: probes.Probes, seconds: float) -> None:
        t_start = time.perf_counter()
        while True:
            probe.phase = f"pass{self.count}"
            t_pass = time.perf_counter()
            for i, call in enumerate(self.calls):
                rc, dt, _out, _err = invoke(railsim, call.argv)
                self.times[i].append(dt)
                self.rcs[i].append(rc)
                self.digests[i].append(file_digests(call.out_dir))
            self.count += 1
            now = time.perf_counter()
            if self.count >= MIN_PASSES and now - t_start + (now - t_pass) > seconds:
                return

    def check_pass(self, railsim, probe: probes.Probes) -> None:
        probe.phase = "check"
        for i, call in enumerate(self.calls):
            probe.captured = []
            rc, _dt, out, err = invoke(railsim, call.argv)
            self.rcs[i].append(rc)
            self.records[i] = probe.captured
            self.outs[i] = (out, err)
            self.digests[i].append(file_digests(call.out_dir))
        probe.captured = None


def traced_metrics(args, railsim, probe: probes.Probes, p: Passes, d: Path) -> dict:
    """Per-layer numbers of a traced run; uninstalls the probes."""
    probe.phase = "setup"
    with redirect_stdout(io.StringIO()):
        inputs.write_inputs(args.workload, args.seed, str(d / "traced-setup"))
    probe.uninstall()
    recs = [r for rs in p.records for r in rs]
    # The check pass's DAGs re-run as often as the fewest timed passes; the
    # fastest repeat's sum, like the span layers' fastest pass.
    repeats = []
    for _ in range(MIN_PASSES):
        t_base = 0.0
        for r in recs:
            if "args" in r:
                dag, topo, policy = r["args"]
                t0 = time.perf_counter()
                railsim.fabric.simulate(dag, topo, policy, force_baseline=True)
                t_base += time.perf_counter() - t0
        repeats.append(t_base)
    t_base = min(repeats)
    m = probes.layer_times(probe.spans, [f"pass{k}" for k in range(p.count)])
    counts = probes.span_counts(probe.spans, f"pass{p.count - 1}")
    sim_s = m["fabric.simulate_s"]
    m.update({
        "workload.events": counts.get("workload.events", 0),
        "fabric.baseline_s": t_base,
        "fabric.simulate_calls": counts["simulate_calls"],
        "fabric.engine_s": sim_s - t_base - m["control.profile_s"],
        "fabric.sweep_parallelism": (m.pop("fabric.sweep_simulate_s") / m["fabric.sweep_s"]
                                     if m["fabric.sweep_s"] else 0.0),
        "trace.save_s": sum(s.length for s in probe.spans
                            if s.phase == "setup" and s.name == "trace.save_trace"),
        "trace.bytes": counts.get("trace.bytes", 0),
        "windows.windows": counts.get("windows.windows", 0),
        "windows.overlaps": counts.get("windows.overlaps", 0),
        "cli.output_bytes": sum(os.path.getsize(os.path.join(c.out_dir, f))
                                for c in p.calls if os.path.isdir(c.out_dir)
                                for f in os.listdir(c.out_dir)),
    })
    m.update(control_metrics(recs))
    probe.write_spans(str(WORK / "spans" / f"{args.workload}-seed{args.seed}.json"))
    return m


def run(args, railsim, d: Path) -> dict:
    setup_times, setup_digests = set_up(args, d / "inputs")
    global_bad = []
    if any(dg != setup_digests[0] for dg in setup_digests):
        global_bad.append("set-up wrote different inputs for the same seed")
    p = Passes(inputs.calls(args.workload, args.seed, str(d / "inputs")))
    probe = probes.Probes(args.workload, bool(args.trace))

    def install() -> None:
        for target in probe.install():
            print(f"note: {target} not found, so it is not probed")

    if args.trace:  # spans of the timed passes
        install()
    p.run(railsim, probe, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:  # only to capture the check pass's SimResults
        install()
    p.check_pass(railsim, probe)
    if args.trace:
        per_layer = traced_metrics(args, railsim, probe, p, d)
    probe.uninstall()

    # Checks, after the timer has stopped.
    electrical = Electrical(railsim)
    violations: Dict[int, List[str]] = {}
    checked_runs = 0
    for i, call in enumerate(p.calls):
        bad = []
        if any(dg != p.digests[i][0] for dg in p.digests[i]):
            bad.append("outputs differ between passes")
        if p.rcs[i][-1] == 0:
            found, done = check_call(call, p.records[i], p.outs[i][0], electrical, railsim)
            bad += found
            checked_runs += len(done)
        if bad:
            violations[i] = bad
    n = len(p.calls)
    # Each distinct call counts once, failed if any of its passes exited
    # non-zero or its output broke a check, so the counts do not depend on
    # how many passes fit into --seconds.
    failed = sum(1 for i in range(n) if any(p.rcs[i]) or i in violations)
    attempted = n

    # On a shared host, passes run up to 1.8 times slower for seconds to
    # minutes for reasons outside railsim; a call's fastest pass is its
    # steadiest time (README.md, "Why short calls").
    wall_s = sum(min(t) for t in p.times)
    events = sum(c.shape.events * (2 * len(inputs.SWEEP_DELAYS) if c.sweep else 1)
                 for i, c in enumerate(p.calls) if p.rcs[i][-1] == 0)
    sims = sim_metrics(args.workload, p, electrical)
    sims["failed_share"] = failed / attempted
    e2e = {
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }

    print(f"railsim benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"set-up: {len(setup_times)} runs, {', '.join(f'{t:.4f}' for t in setup_times)} s")
    print(f"passes: {p.count} timed + 1 check, calls: {n}, failed {failed}, "
          f"events per pass {events}")
    pass_s = sorted(sum(t[k] for t in p.times) for k in range(p.count))
    print(f"pass seconds: fastest {pass_s[0]:.4f}, median "
          f"{statistics.median(pass_s):.4f}, slowest {pass_s[-1]:.4f}")
    for name, unit in list(END_TO_END.items()) + list(SIMULATED.items()):
        v = e2e.get(name, sims.get(name))
        kind = "sim" if name in ("overhead_pct", "hidden_share", "prov_loses_share") else "host"
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:<17} {shown:>14} {unit:<6} {kind}")
    for name, h in sorted(combined_digests([dg[-1] for dg in p.digests]).items()):
        print(f"sha256 {name:<12} {h}")
    for name, h in sorted(setup_digests[0].items()):
        if not name.endswith(".ini"):
            print(f"sha256 {name:<12} {h} (set-up)")
    for i, bad in sorted(violations.items()):
        for b in bad[:5]:
            print(f"violation: call #{i} ({p.calls[i].argv[0]}): {b}")
    for b in global_bad:
        print(f"violation: {b}")
    for i in range(n):
        if p.rcs[i][-1] != 0:
            msg = p.outs[i][1].strip().splitlines()[-1:] or ["(no message)"]
            print(f"exit {p.rcs[i][-1]}: call #{i} {' '.join(p.calls[i].argv)}: {msg[0]}")
    print(f"checks: {checked_runs} simulated runs checked for circuit invariants, "
          f"{len(violations)} calls with violations")

    if args.trace:
        per_layer["traced.wall_s"] = wall_s
        per_layer.update({k: (0.0 if v is None else v) for k, v in sims.items()})
        for name, unit in PER_LAYER.items():
            print(f"  {name:<26} {per_layer[name]:>14.6g} {unit}")
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": not violations and not global_bad, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="railsim benchmark")
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    railsim = import_railsim()
    d = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run(args, railsim, d)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
