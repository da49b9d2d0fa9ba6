#!/usr/bin/env python3
"""Run the benchmark over several seeds and record one point of the perf trajectory.

    python3 perfbench/trajectory.py --label seed --out perfbench/trajectory/seed.json

Every workload runs on seeds 1-10 untraced and 1-3 traced.  For each: the median and quartiles of every end-to-end metric over
the untraced runs, and their spread (quartile distance over median); the
simulated metrics, failures and output digests per seed; the median of every
per-layer metric over the traced runs; and the tracing overhead, traced
minus untraced `wall_s` on the same seeds.  Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)\s+(host|sim)$")
DIGEST = re.compile(r"^sha256 (\S+)\s+([0-9a-f]{64})")
SIMULATED = ("failed_share", "overhead_pct", "hidden_share", "prov_loses_share")
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["elapsed_s"] = time.perf_counter() - t0
    result["simulated"] = {}
    result["digests"] = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m and m.group(1) in SIMULATED:
            result["simulated"][m.group(1)] = None if m.group(2) == "n/a" else float(m.group(2))
        m = DIGEST.match(line)
        if m:
            result["digests"][m.group(1)] = m.group(2)
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this trajectory point")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    point = {"label": args.label, "python": platform.python_version(),
             "nproc": os.cpu_count(), "platform": platform.platform(),
             "run_seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        plain = [run_once(w, s, seconds, 0) for s in SEEDS]
        traced = [run_once(w, s, seconds, 1) for s in TRACED_SEEDS]
        wall = {r["seed"]: r["metrics"]["wall_s"]["value"] for r in plain}
        point["workloads"][w] = {
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                               for r in plain])
                           for m in bench["end_to_end"]},
            "per_layer": {k: statistics.median(r["metrics"][k]["value"] for r in traced)
                          for k in traced[0]["metrics"]},
            "tracing_overhead_s": statistics.median(
                r["metrics"]["traced.wall_s"]["value"] - wall[r["seed"]]
                for r in traced),
            "runs": [{k: r[k] for k in ("seed", "elapsed_s", "correct", "attempted",
                                        "failed", "simulated", "digests")}
                     for r in plain],
            "traced_elapsed_s": [r["elapsed_s"] for r in traced],
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(point, f, indent=1, sort_keys=True)
        f.write("\n")
    for w, data in point["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{w:14s} {name:14s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
