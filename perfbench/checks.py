"""Correctness checks made from outside the program, after the timer stops.

Each check returns a list of violation messages; an empty list means the
output passed.  They read only public results: the CSV files the CLI writes,
its console lines, and the `SimResult` logs (`reconfig_log`, `circuit_log`,
`transfer_log`) captured around `simulate`.
"""

from __future__ import annotations

import bisect
import csv
import re
from typing import Dict, Iterable, List, Sequence, Tuple

EPS = 1e-12
REL = 1e-9  # relative tolerance when comparing makespans

SIM_LINE = re.compile(r"^makespan (\S+)s, overhead x(\S+), (\d+) reconfigurations$")
WINDOWS_LINE = re.compile(r"^(\d+) windows on (\d+) rails \((\d+) overlaps\)$")


def circuit_invariants(circuit_log: Sequence[tuple], transfer_log: Sequence[tuple],
                       delay: float, nic_ports: int) -> List[str]:
    """Safety invariants of one simulated run.

    No port is held by two groups at once, every transfer runs inside a
    circuit of its port and never while the port is switching (the `delay`
    before a circuit comes up), and no rank holds more circuits at once than
    its NIC has ports.
    """
    bad: List[str] = []
    by_port: Dict[Tuple[int, int], List[tuple]] = {}
    for _rail, rank, port, group, up, down in circuit_log:
        if down < up - EPS:
            bad.append(f"circuit of {group} on rank {rank} port {port} ends "
                       f"before it starts ({up} > {down})")
        by_port.setdefault((rank, port), []).append((up, down, group))
    transfers: Dict[Tuple[int, int], List[tuple]] = {}
    for eid, rank, port, start, end in transfer_log:
        transfers.setdefault((rank, port), []).append((start, end, eid))
    for key in transfers.keys() - by_port.keys():
        bad.append(f"{len(transfers[key])} transfers on rank {key[0]} port "
                   f"{key[1]}, which never held a circuit")
    for key, ivals in by_port.items():
        ivals.sort()
        for (u1, d1, g1), (u2, d2, g2) in zip(ivals, ivals[1:]):
            if u2 < d1 - EPS:
                bad.append(f"rank {key[0]} port {key[1]} held by {g1} and {g2} "
                           f"at once ({u2} < {d1})")
        # Switching windows [up - delay, up), sorted by both ends.
        his = [up for up, _down, _g in ivals]
        los = [up - delay for up in his]
        for s, e, eid in transfers.get(key, ()):
            i = bisect.bisect_right(his, s + EPS) - 1
            if i < 0 or ivals[i][1] < e - EPS:
                bad.append(f"transfer {eid} [{s}, {e}] on rank {key[0]} port "
                           f"{key[1]} runs outside its circuits")
            if delay <= 0:
                continue
            for i in range(bisect.bisect_right(his, s + EPS),
                           bisect.bisect_left(los, e - EPS)):
                bad.append(f"transfer {eid} [{s}, {e}] on rank {key[0]} port "
                           f"{key[1]} overlaps switching [{los[i]}, {his[i]}]")
    marks: Dict[int, List[Tuple[float, int]]] = {}
    for _rail, rank, _port, _group, up, down in circuit_log:
        if down > up:
            marks.setdefault(rank, []).extend(((up, 1), (down, -1)))
    for rank, pts in marks.items():
        pts.sort()  # a circuit is [up, down): releases at t sort before acquires
        live = 0
        for t, step in pts:
            live += step
            if live > nic_ports:
                bad.append(f"rank {rank} holds {live} circuits at t={t}, "
                           f"NIC has {nic_ports} ports")
                break
    return bad


def not_below(makespan: float, electrical: float, what: str) -> List[str]:
    if makespan < electrical * (1 - REL):
        return [f"{what} makespan {makespan!r} below electrical {electrical!r}"]
    return []


def sweep_rows(path: str) -> List[Tuple[float, str, float, float]]:
    with open(path, newline="", encoding="utf-8") as f:
        return [(float(r["delay_s"]), r["policy"], float(r["makespan_s"]),
                 float(r["overhead"])) for r in csv.DictReader(f)]


def check_sweep(rows: Sequence[tuple], delays: Sequence[float],
                electrical: float) -> List[str]:
    """Every point present, zero delay equals electrical, monotone in delay."""
    bad: List[str] = []
    by = {(d, p): m for d, p, m, _o in rows}
    for policy in ("reactive", "provisioning"):
        series = []
        for d in delays:
            if (d, policy) not in by:
                bad.append(f"sweep row missing: delay {d} {policy}")
                continue
            m = by[(d, policy)]
            series.append((d, m))
            bad += not_below(m, electrical, f"sweep {policy} delay {d}")
            if d == 0 and abs(m - electrical) > REL * electrical:
                bad.append(f"zero-delay {policy} makespan {m!r} != "
                           f"electrical {electrical!r}")
        for (d1, m1), (d2, m2) in zip(series, series[1:]):
            if m2 < m1 - EPS:
                bad.append(f"{policy} makespan falls from {m1!r} at {d1} "
                           f"to {m2!r} at {d2}")
    return bad


def check_sim_outputs(out_dir: str, stdout: str, makespan: float,
                      reconfigs: int) -> List[str]:
    """timeline.csv ends at the makespan; reconfig.csv matches the log."""
    bad: List[str] = []
    m = SIM_LINE.match(stdout.strip().splitlines()[-1]) if stdout.strip() else None
    if m is None:
        return [f"unexpected sim output {stdout!r}"]
    if abs(float(m.group(1)) - makespan) > 1e-6 or int(m.group(3)) != reconfigs:
        bad.append(f"sim printed {m.group(0)!r}, result has makespan "
                   f"{makespan!r} and {reconfigs} reconfigurations")
    last_end = 0.0
    with open(f"{out_dir}/timeline.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            start, end = float(row["start_s"]), float(row["end_s"])
            if end < start:
                bad.append(f"timeline row {row} ends before it starts")
                break
            last_end = max(last_end, end)
    if last_end != makespan:
        bad.append(f"timeline ends at {last_end!r}, makespan is {makespan!r}")
    with open(f"{out_dir}/reconfig.csv", encoding="utf-8") as f:
        rows = sum(1 for _ in f) - 1
    if rows != reconfigs:
        bad.append(f"reconfig.csv has {rows} rows, log has {reconfigs}")
    return bad


def check_windows_outputs(out_dir: str, stdout: str, rails: int,
                          bound_per_rail: int) -> List[str]:
    """windows.csv, cdf.csv and the console summary agree; Eq. 1 bound holds."""
    bad: List[str] = []
    with open(f"{out_dir}/windows.csv", newline="", encoding="utf-8") as f:
        wins = list(csv.DictReader(f))
    with open(f"{out_dir}/cdf.csv", newline="", encoding="utf-8") as f:
        cdf = [(float(r["size_s"]), float(r["fraction"])) for r in csv.DictReader(f)]
    m = next((WINDOWS_LINE.match(line) for line in stdout.splitlines()
              if WINDOWS_LINE.match(line)), None)
    if m is None or int(m.group(1)) != len(wins) or int(m.group(2)) != rails:
        bad.append(f"windows summary {m and m.group(0)!r} does not match "
                   f"{len(wins)} rows on {rails} rails")
    per_rail: Dict[str, int] = {}
    for w in wins:
        start, end, size = float(w["start_s"]), float(w["end_s"]), float(w["size_s"])
        if size < 0 or abs((end - start) - size) > EPS:
            bad.append(f"window {w} has inconsistent size")
        per_rail[w["rail"]] = per_rail.get(w["rail"], 0) + 1
    for rail, n in per_rail.items():
        if n > bound_per_rail:
            bad.append(f"rail {rail} has {n} windows, Eq. 1 bound is {bound_per_rail}")
    if len(cdf) != len(wins) or (cdf and cdf[-1][1] != 1.0) or any(
            b[0] < a[0] or b[1] <= a[1] for a, b in zip(cdf, cdf[1:])):
        bad.append("cdf.csv is not the sorted CDF of the window sizes")
    return bad


def spec_useful(reconfig_log: Iterable, circuit_log: Sequence[tuple],
                transfer_log: Sequence[tuple]) -> Tuple[int, int]:
    """(useful, all) speculative reconfigurations of one run.

    A speculative reconfiguration is useful when a circuit of its group that
    is up once the reconfiguration completes carries a transfer before it is
    torn down.
    """
    starts: Dict[Tuple[int, int], List[float]] = {}
    for _eid, rank, port, start, _end in transfer_log:
        starts.setdefault((rank, port), []).append(start)
    for v in starts.values():
        v.sort()
    circuits: Dict[str, List[tuple]] = {}
    for _rail, rank, port, group, up, down in circuit_log:
        circuits.setdefault(group, []).append((rank, port, up, down))
    useful = total = 0
    for e in reconfig_log:
        if not e.speculative:
            continue
        total += 1
        ready = e.time + (e.delay if e.ports_changed else 0.0)
        for rank, port, up, down in circuits.get(e.group, ()):
            if not (up <= ready + EPS and down >= ready - EPS):
                continue
            s = starts.get((rank, port), [])
            i = bisect.bisect_left(s, ready - EPS)
            if i < len(s) and s[i] <= down + EPS:
                useful += 1
                break
    return useful, total
