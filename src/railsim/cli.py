"""Command-line interface: scenario generation, analysis, sweeps, reports.

Subcommands:
  gen      generate a 3D-parallel schedule and write it as a trace file
  windows  idle-window analysis (windows.csv, cdf.csv, console summary)
  sim      one simulation run (timeline.csv, reconfig.csv)
  sweep    reconfiguration-delay sweep, both policies (sweep.csv, sweep.svg)
  econ     fabric cost/power comparison (bom.csv, console savings)
  table4   OCS technology scalability table (table4.csv)

Scenarios and econ inputs are INI files with named sections, read by one
strict reader (`_read_ini`); `sim` and `sweep` flags override scenario
fields, and a scenario or econ section or key the reader does not know is a
config error.  Exit codes: 0 success, 2 config error, 3 infeasible topology or
port demand, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .econ import (EconConfig, FabricBom, electrical_fabric_bom,
                   ocs_fabric_bom, savings, scalability_table)
from .errors import (ConfigError, ConflictDeadlock, CyclicDependency,
                     DegreeInfeasible, EmptyInput, InvalidNicConfig,
                     InvalidParams, MissingDependency, NotMember, ParseError,
                     RadixExceeded, UnsupportedKind)
from . import fabric
from .fabric import ControlPolicy, SimResult, simulate, sweep_delay
from .model import Topology, TopologySpec, build_topology
from .trace import WRITE_CHUNK_LINES, FloatText, load_trace, save_trace
from .windows import Window, analyze_rail, classify_by_volume, window_cdf
from .workload import EventDag, WorkloadParams, generate_3d_schedule

# Window volume classes bracketing sync (<1 MB), pipeline activation,
# parameter AllGather, and gradient ReduceScatter traffic.
DEFAULT_CLASS_EDGES = (1e6, 500e6, 2e9)

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DEFAULT_ECON_CONFIG = os.path.join(_DATA_DIR, "econ_h200.ini")
DEFAULT_SCENARIO = os.path.join(_DATA_DIR, "llama3_8b.ini")
# Every section and key a scenario may hold; anything else is rejected.
_SCENARIO_KEYS = {
    "topology": frozenset(("num_domains", "gpus_per_domain", "scaleup_bandwidth",
                           "nic_ports", "nic_port_bandwidth", "rail_switch",
                           "reconfig_delay", "radix")),
    "workload": frozenset(("trace", "pp", "dp", "tp", "n_layer", "n_microbatch",
                           "bytes_per_layer_param", "bytes_activation",
                           "bytes_sync_allreduce", "fwd_layer", "bwd_layer",
                           "optim", "pre_stage")),
    "control": frozenset(("provisioning", "alpha")),
    "sweep": frozenset(("delays",)),
}
# Every section and key an econ config may hold; anything else is rejected.
_ECON_KEYS = {
    "units": frozenset(("electrical_switch_cost", "electrical_switch_radix",
                        "electrical_port_power_w", "transceiver_cost",
                        "transceiver_power_w", "ocs_port_cost", "ocs_chassis_power_w",
                        "ocs_chassis_ports")),
    "reference_topology": frozenset(("num_domains", "gpus_per_domain", "scaleup_bandwidth",
                                     "nic_ports", "nic_port_bandwidth", "radix",
                                     "reconfig_delay")),
}
# An inline or full-line comment: `#` or `;` at the start of a line or
# after whitespace.
_COMMENT = re.compile(r"(?:^|\s)[#;]")
# A key line: the key runs to the first `=` or `:`.
_KEY_VALUE = re.compile(r"([^=:]+)[=:](.*)")


@dataclass
class Scenario:
    """One experiment bundle: topology, workload or trace, policy, sweep."""

    topology: TopologySpec
    workload: Optional[WorkloadParams]
    trace_path: Optional[str]
    provisioning: bool
    alpha: float
    delays: Tuple[float, ...]


def _fmt(x: float) -> str:
    """Stable float formatting for CSV output (repr round-trips exactly)."""
    return repr(float(x))


def _getfloat(sec, key: str, default: Optional[float] = None) -> float:
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"bad numeric value for {key!r}: {raw!r}")


def _getint(sec, key: str, default: Optional[int] = None) -> int:
    v = _getfloat(sec, key, float(default) if default is not None else None)
    if not math.isfinite(v) or v != int(v):  # int() raises on nan and inf
        raise ConfigError(f"{key!r} must be an integer, got {v}")
    return int(v)


def _getbool(sec, key: str, default: bool) -> bool:
    raw = sec.get(key)
    if raw is None:
        return default
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean value for {key!r}: {raw!r}")


def _read_ini(path: str, what: str) -> Dict[str, Dict[str, str]]:
    """Read an INI file into {section: {key: value}}.

    The accepted subset: `[section]` headers, `key = value` or `key: value`
    lines (split at the first `=` or `:`, key lower-cased, both sides
    stripped), blank lines, and comments that start with `#` or `;` at the
    start of a line or after whitespace.  Values are taken literally: `%`
    has no meaning.  Anything else raises ConfigError naming the file and
    line: text before the first section, a line with no delimiter or an
    empty key, a repeated section or key, an indented line (a continuation
    line elsewhere) and text that is not UTF-8.  `what` names the file's
    role in the messages.
    """
    sections: Dict[str, Dict[str, str]] = {}
    section: Optional[Dict[str, str]] = None

    def fail(problem: str) -> ConfigError:
        return ConfigError(f"cannot parse {what} {path}: line {lineno}: {problem}")

    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, 1):
                comment = _COMMENT.search(line)
                if comment is not None:
                    line = line[:comment.start()]
                text = line.strip()
                if not text:
                    continue
                if line[0].isspace():
                    raise fail("indented line (continuation lines are not supported)")
                if text[0] == "[" and text[-1] == "]":
                    name = text[1:-1]
                    if name in sections:
                        raise fail(f"section [{name}] repeated")
                    section = sections[name] = {}
                    continue
                if section is None:
                    raise fail("text before the first [section]")
                pair = _KEY_VALUE.fullmatch(text)
                if pair is None:
                    raise fail(f"expected 'key = value', got {text!r}")
                key = pair[1].rstrip().lower()
                if key in section:
                    raise fail(f"key {key!r} repeated")
                section[key] = pair[2].lstrip()
        except UnicodeDecodeError as e:
            raise ConfigError(f"cannot parse {what} {path}: not UTF-8 text ({e.reason})") from None
    return sections


def _read_known_ini(path: str, what: str,
                    known: Dict[str, frozenset]) -> Dict[str, Dict[str, str]]:
    """`_read_ini`, rejecting a section or key that `known` does not list."""
    cp = _read_ini(path, what)
    for name in cp:
        if name not in known:
            raise ConfigError(f"{what} {path}: unknown section [{name}]")
        unknown = sorted(set(cp[name]) - known[name])
        if unknown:
            raise ConfigError(f"{what} {path}: unknown key {unknown[0]!r} "
                              f"in [{name}]")
    return cp


def load_scenario(path: str, args: Optional[argparse.Namespace] = None) -> Scenario:
    """Parse a scenario INI file and apply the overrides `args` carries:
    `delay`, `switch` and `provisioning`, each None to keep the file's."""
    cp = _read_known_ini(path, "scenario", _SCENARIO_KEYS)
    if "topology" not in cp:
        raise ConfigError(f"scenario {path} missing [topology] section")
    t = cp["topology"]
    spec = TopologySpec(
        num_domains=_getint(t, "num_domains"),
        gpus_per_domain=_getint(t, "gpus_per_domain"),
        scaleup_bandwidth=_getfloat(t, "scaleup_bandwidth"),
        nic_ports=_getint(t, "nic_ports"),
        nic_port_bandwidth=_getfloat(t, "nic_port_bandwidth"),
        rail_switch_kind=t.get("rail_switch", "electrical").strip().lower(),
        reconfig_delay=_getfloat(t, "reconfig_delay", 0.0),
        radix=_getint(t, "radix", 0),
    )

    if "workload" not in cp:
        raise ConfigError(f"scenario {path} missing [workload] section")
    w = cp["workload"]
    workload = None
    trace_path = None
    if "trace" in w:
        if len(w) > 1:
            raise ConfigError("[workload] must contain either a trace path "
                              "or generator parameters, not both")
        trace_path = w["trace"].strip()
    else:
        workload = WorkloadParams(
            pp=_getint(w, "pp"), dp=_getint(w, "dp"), tp=_getint(w, "tp"),
            n_layer=_getint(w, "n_layer"),
            n_microbatch=_getint(w, "n_microbatch"),
            bytes_per_layer_param=_getint(w, "bytes_per_layer_param"),
            bytes_activation=_getint(w, "bytes_activation"),
            bytes_sync_allreduce=_getint(w, "bytes_sync_allreduce"),
            compute_times={
                "fwd_layer": _getfloat(w, "fwd_layer"),
                "bwd_layer": _getfloat(w, "bwd_layer"),
                "optim": _getfloat(w, "optim"),
                "pre_stage": _getfloat(w, "pre_stage"),
            },
        )

    c = cp.get("control", {})
    provisioning = _getbool(c, "provisioning", True)
    alpha = _getfloat(c, "alpha", 1e-6)
    if not 0.0 <= alpha < math.inf:
        raise ConfigError(f"scenario {path}: alpha must be finite and >= 0, got {alpha}")

    delays: Tuple[float, ...] = (spec.reconfig_delay,)
    listed = cp.get("sweep", {}).get("delays")
    if listed:
        try:
            delays = tuple(float(p) for p in listed.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"bad delay list: {listed!r}")
        bad = next((d for d in delays if not 0 <= d < math.inf), None)
        if bad is not None:
            raise ConfigError(f"scenario {path}: [sweep] delays: reconfiguration delay "
                              f"must be finite and >= 0, got {bad}")

    if args is not None:
        if getattr(args, "delay", None) is not None:
            spec = replace(spec, reconfig_delay=args.delay)
        if getattr(args, "switch", None):
            spec = replace(spec, rail_switch_kind=args.switch)
        if getattr(args, "provisioning", None) is not None:
            provisioning = args.provisioning

    return Scenario(topology=spec, workload=workload, trace_path=trace_path,
                    provisioning=provisioning, alpha=alpha, delays=delays)


def _scenario_dag(scn: Scenario, topo: Topology) -> EventDag:
    if scn.trace_path is not None:
        return load_trace(scn.trace_path)
    return generate_3d_schedule(scn.workload, topo)


def _write_csv(path: str, header: str, rows: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join([header, *rows]) + "\n")


def write_svg(path: str, series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
              x_label: str, y_label: str, title: str) -> None:
    """Minimal deterministic polyline chart: axes, labels, one line per series."""
    width, height, margin = 640, 420, 60
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 16}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height // 2})">{y_label}</text>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        lines.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="10">{xv:.4g}</text>')
        lines.append(f'<text x="{margin - 6}" y="{sy(yv):.1f}" '
                     f'text-anchor="end" font-size="10">{yv:.4g}</text>')
    for i, (name, pts) in enumerate(series):
        color = colors[i % len(colors)]
        path_pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{path_pts}"/>')
        lines.append(f'<text x="{width - margin - 4}" y="{margin + 16 * (i + 1)}" '
                     f'text-anchor="end" font-size="12" fill="{color}">{name}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    if scn.workload is None:
        raise ConfigError("gen needs generator parameters, not a trace path")
    topo = build_topology(scn.topology)
    dag = generate_3d_schedule(scn.workload, topo)
    # Stamp idealized observed times so the trace is self-contained for
    # window analysis.
    res = simulate(dag, topo, ControlPolicy(alpha=scn.alpha), force_baseline=True)
    dag.observed_start = list(res.event_times.start)
    dag.observed_end = list(res.event_times.end)
    save_trace(dag, args.out)
    print(f"wrote {args.out}: {len(dag)} events, "
          f"{len(dag.groups)} groups, makespan {res.makespan:.6f}s")
    return 0


def cmd_windows(args: argparse.Namespace) -> int:
    edges = DEFAULT_CLASS_EDGES
    if args.classes:
        try:
            edges = tuple(float(e) for e in args.classes.split(","))
        except ValueError:
            raise ConfigError(f"--classes needs comma-separated numbers, "
                              f"got {args.classes!r}") from None
    if args.trace:
        dag = load_trace(args.trace)
        start, end = dag.observed_start, dag.observed_end
        rails = sorted({r for g in dag.groups.values() if g.is_scaleout
                        for r in g.rails_touched})
    else:
        scn = load_scenario(args.scenario)
        topo = build_topology(scn.topology)
        dag = _scenario_dag(scn, topo)
        res = simulate(dag, topo, ControlPolicy(alpha=scn.alpha),
                       force_baseline=True)
        start, end = res.event_times.start, res.event_times.end
        rails = list(range(topo.gpus_per_domain))

    windows: List[Window] = []
    overlaps = 0
    reports = {}
    for rail in rails:
        # Every rail a DAG that holds rail 0 stands for has rail 0's windows.
        held = 0 if rail < dag.rails else rail
        rep = reports.get(held)
        if rep is None:
            rep = reports[held] = analyze_rail(dag, start, end, held)
        windows += [w if w.rail == rail else replace(w, rail=rail) for w in rep.windows]
        overlaps += len(rep.overlaps)

    os.makedirs(args.out_dir, exist_ok=True)
    if windows:
        classes = classify_by_volume(windows, edges)  # stamps volume_class
    rows = [f"{w.rail},{_fmt(w.start)},{_fmt(w.end)},{_fmt(w.size)},"
            f"{int(w.next_volume_bytes)},{w.volume_class}"
            for w in sorted(windows, key=lambda w: (w.rail, w.start))]
    _write_csv(os.path.join(args.out_dir, "windows.csv"),
               "rail,start_s,end_s,size_s,next_volume_bytes,class", rows)
    if not windows:
        _write_csv(os.path.join(args.out_dir, "cdf.csv"), "size_s,fraction", [])
        print("no windows found")
        return 0
    cdf = window_cdf(windows)
    _write_csv(os.path.join(args.out_dir, "cdf.csv"), "size_s,fraction",
               [f"{_fmt(s)},{_fmt(fr)}" for s, fr in cdf])
    over_1ms = sum(1 for w in windows if w.size > 1e-3) / len(windows)
    print(f"{len(windows)} windows on {len(rails)} rails ({overlaps} overlaps)")
    print(f"fraction of windows > 1 ms: {over_1ms:.4f}")
    for st in classes:
        if st.count:
            print(f"class {st.label}: n={st.count} mean={st.mean_size * 1e3:.3f}ms "
                  f"min={st.min_size * 1e3:.3f}ms max={st.max_size * 1e3:.3f}ms")
    return 0


class _RankTexts(dict):
    """ranks -> the texts between a `timeline.csv` line's head and its
    times, one per line in the order they are written, each built on first
    use: `{rank}` for each distinct rank in order, or with `rails` (rail
    numbers in their text order), `{l},{rank + l}` for each rail l in turn
    and each distinct rank in order."""

    def __init__(self, rails: Optional[Sequence[int]] = None):
        super().__init__()
        self.rails = rails

    def __missing__(self, rs: tuple) -> List[str]:
        ranks = sorted(set(rs))
        texts = self[rs] = ([str(r) for r in ranks] if self.rails is None else
                            [f"{l},{r + l}" for l in self.rails for r in ranks])
        return texts


def _write_sim_outputs(res: SimResult, out_dir: str) -> None:
    """Write timeline.csv (one row per event and rank, by event id) and
    reconfig.csv.  Timeline rows are written in chunks of about
    `WRITE_CHUNK_LINES` as they are formatted, so the file's text is never
    held whole.  The DAG's rows go by id, each row's twins together in the
    text order of their rails, which orders every rail's ids (see the
    `workload` module); a twin's per-rank joins are its row's, each rank
    moved to the twin's rail.  A row whose ranks all join at one time (a
    one-rank row, or one that `fabric._one_join` finds: its last-ending
    dependencies reach all of its ranks, or one of them reaches none)
    writes all of its lines, its twins' too, with one join over its ranks'
    texts; the other rows take per-rank joins from `fabric._joins`, which
    `Timeline.starts` gives too.  The `{rank}` and `{rail},{rank}` texts
    come from tables by ranks, built as ranks are met, so no line formats
    an integer.  reconfig.csv formats its times with the same `FloatText`."""
    os.makedirs(out_dir, exist_ok=True)
    timeline = res.event_times
    dag, start, end = timeline.dag, timeline.start, timeline.end
    ids, ranks, deps, spans, rails = dag.ids, dag.ranks, dag.deps, dag.spans, dag.rails
    plain = _RankTexts()
    twin_texts = _RankTexts(sorted(range(rails), key=str)) if rails > 1 else plain
    spanning = (rails, spans) if rails > 1 else ()  # `_one_join`'s twins of a row in `spans`
    one_join, joins_of, text = fabric._one_join, fabric._joins, FloatText()
    with open(os.path.join(out_dir, "timeline.csv"), "w", encoding="utf-8",
              newline="\n") as f:
        f.write("event_id,rank,start_s,end_s\n")
        chunk, n = [], 0  # texts of lines, a row's and its twins' in one, and the lines' count
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            rs = ranks[i]
            if rails > 1 and i not in spans:
                head, texts, twins = ids[i][:-1], twin_texts, ()
            else:
                head, texts, twins = ids[i] + ",", plain, spanning
            if len(rs) == 1:  # one rank joins when the event starts
                t = start[i]
            elif not rs:  # no line
                continue
            else:
                t = one_join(rs, deps[i], ranks, end, *twins)
            if t is not None:
                tail = f",{text[t]},{text[end[i]]}\n"
                lines = texts[rs]
                chunk.append(head + (tail + head).join(lines) + tail)
                n += len(lines)
            else:
                e = text[end[i]]
                joins = joins_of(rs, deps[i], ranks, end, *twins)
                per_rank = [(texts[(rank,)], f",{text[joins[rank]]},{e}\n")
                            for rank in sorted(joins)]
                copies = len(per_rank[0][0])  # the rank's lines: one per twin
                chunk.append("".join([head + lines[k] + tail for k in range(copies)
                                      for lines, tail in per_rank]))
                n += copies * len(per_rank)
            if n >= WRITE_CHUNK_LINES:
                f.write("".join(chunk))
                chunk, n = [], 0
        f.write("".join(chunk))
    rrows = [f"{text[e.time]},{e.rail},{e.group},{int(e.speculative)},{text[e.delay]},"
             f"{e.ports_changed}"
             for e in sorted(res.reconfig_log, key=attrgetter("time", "rail", "group"))]
    _write_csv(os.path.join(out_dir, "reconfig.csv"),
               "time_s,rail,group_id,speculative,delay_s,ports_changed", rrows)


def cmd_sim(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario, args)
    topo = build_topology(scn.topology)
    dag = _scenario_dag(scn, topo)
    res = simulate(dag, topo,
                   ControlPolicy(provisioning=scn.provisioning, alpha=scn.alpha))
    _write_sim_outputs(res, args.out_dir)
    print(f"makespan {res.makespan:.6f}s, overhead x{res.overhead_vs_baseline:.6f}, "
          f"{len(res.reconfig_log)} reconfigurations")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario, args)
    topo = build_topology(scn.topology)
    dag = _scenario_dag(scn, topo)
    policies = (ControlPolicy(provisioning=False, alpha=scn.alpha),
                ControlPolicy(provisioning=True, alpha=scn.alpha))
    rows = sweep_delay(dag, topo, scn.delays, policies)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(os.path.join(args.out_dir, "sweep.csv"),
               "delay_s,policy,makespan_s,overhead",
               [f"{_fmt(d)},{p},{_fmt(m)},{_fmt(o)}" for d, p, m, o in rows])
    series = []
    for pol in policies:
        pts = [(d * 1e3, o) for d, p, m, o in rows if p == pol.label]
        series.append((pol.label, pts))
    write_svg(os.path.join(args.out_dir, "sweep.svg"), series,
              "reconfiguration delay (ms)", "iteration time vs baseline",
              "Reconfiguration delay sweep")
    for d, p, m, o in rows:
        print(f"delay {d * 1e3:8.3f}ms {p:16s} makespan {m:.6f}s "
              f"overhead {(o - 1) * 100:+.3f}%")
    return 0


def _bom_rows(bom: FabricBom) -> List[str]:
    rows = [f"{bom.fabric},{i.name},{i.count},{_fmt(i.unit_cost)},"
            f"{_fmt(i.unit_power_w)},{_fmt(i.cost)},{_fmt(i.power_w)}"
            for i in bom.items]
    rows.append(f"{bom.fabric},total,,,,{_fmt(bom.total_cost)},"
                f"{_fmt(bom.total_power_w)}")
    return rows


def load_econ_config(path: str) -> Tuple[EconConfig, TopologySpec]:
    cp = _read_known_ini(path, "econ config", _ECON_KEYS)
    if "units" not in cp:
        raise ConfigError(f"econ config {path} missing [units] section")
    u = cp["units"]
    econ = EconConfig(
        electrical_switch_cost=_getfloat(u, "electrical_switch_cost"),
        electrical_switch_radix=_getint(u, "electrical_switch_radix"),
        electrical_port_power_w=_getfloat(u, "electrical_port_power_w"),
        transceiver_cost=_getfloat(u, "transceiver_cost"),
        transceiver_power_w=_getfloat(u, "transceiver_power_w"),
        ocs_port_cost=_getfloat(u, "ocs_port_cost"),
        ocs_chassis_power_w=_getfloat(u, "ocs_chassis_power_w"),
        ocs_chassis_ports=_getint(u, "ocs_chassis_ports"),
    )
    if "reference_topology" not in cp:
        raise ConfigError(f"econ config {path} missing [reference_topology]")
    r = cp["reference_topology"]
    spec = TopologySpec(
        num_domains=_getint(r, "num_domains"),
        gpus_per_domain=_getint(r, "gpus_per_domain"),
        scaleup_bandwidth=_getfloat(r, "scaleup_bandwidth", 900e9),
        nic_ports=_getint(r, "nic_ports"),
        nic_port_bandwidth=_getfloat(r, "nic_port_bandwidth", 50e9),
        rail_switch_kind="ocs",
        reconfig_delay=_getfloat(r, "reconfig_delay", 0.025),
        radix=_getint(r, "radix"),
    )
    return econ, spec


def cmd_econ(args: argparse.Namespace) -> int:
    econ, ref_spec = load_econ_config(args.config)
    if args.scenario:
        spec = load_scenario(args.scenario).topology
        spec = replace(spec, rail_switch_kind="ocs",
                       radix=spec.radix or ref_spec.radix)
    else:
        spec = ref_spec
    topo = build_topology(spec)
    elec = electrical_fabric_bom(topo, econ)
    ocs = ocs_fabric_bom(topo, econ)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(os.path.join(args.out_dir, "bom.csv"),
               "fabric,item,count,unit_cost,unit_power_w,cost,power_w",
               _bom_rows(elec) + _bom_rows(ocs))
    sv = savings(elec, ocs)
    gpus = topo.num_domains * topo.gpus_per_domain
    print(f"config {args.config}: {gpus} GPUs "
          f"({topo.num_domains} domains x {topo.gpus_per_domain})")
    print(f"electrical: cost {elec.total_cost:,.0f}, power {elec.total_power_w:,.0f} W")
    print(f"ocs:        cost {ocs.total_cost:,.0f}, power {ocs.total_power_w:,.0f} W")
    print(f"cost saving {sv.cost_saving * 100:.2f}%, "
          f"power saving {sv.power_saving * 100:.2f}%")
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    rows = scalability_table()
    keys = [k for k in rows[0] if k.startswith("max_gpus_")]
    header = "tech,reconfig_time_s,radix," + ",".join(keys)
    out = [f"{r['tech']},{_fmt(r['reconfig_time_s'])},{r['radix']},"
           + ",".join(str(r[k]) for k in keys) for r in rows]
    _write_csv(args.out, header, out)
    for r in rows:
        cells = " ".join(f"{k[9:]}={r[k]}" for k in keys)
        print(f"{r['tech']:16s} t={r['reconfig_time_s']:g}s radix={r['radix']:5d} {cells}")
    return 0


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subcommand parsers by name, built on first use
    and then reused by every `main` call."""
    ap = argparse.ArgumentParser(
        prog="railsim",
        description="Simulator and analysis toolkit for circuit-switched GPU rails")
    sub = ap.add_subparsers(dest="command", required=True)

    def scenario_flag(p) -> None:  # a parser or a mutually exclusive group
        p.add_argument("--scenario", default=DEFAULT_SCENARIO,
                       help="scenario INI file")

    p = sub.add_parser("gen", help="generate a schedule trace")
    scenario_flag(p)
    p.add_argument("--out", default="trace.csv")

    p = sub.add_parser("windows", help="idle-window analysis")
    source = p.add_mutually_exclusive_group()
    scenario_flag(source)
    source.add_argument("--trace", default=None,
                        help="analyze a trace file instead")
    p.add_argument("--classes", default=None,
                   help="comma-separated volume class edges in bytes")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("sim", help="single simulation run")
    scenario_flag(p)
    p.add_argument("--delay", type=float, default=None,
                   help="override rail reconfiguration delay (s)")
    p.add_argument("--switch", choices=("electrical", "ocs"), default=None,
                   help="override rail switch kind")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--provisioning", dest="provisioning",
                   action="store_true", default=None)
    g.add_argument("--no-provisioning", dest="provisioning",
                   action="store_false")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("sweep", help="reconfiguration delay sweep")
    scenario_flag(p)
    p.add_argument("--switch", choices=("electrical", "ocs"), default=None,
                   help="override rail switch kind")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored; points run "
                        "serially on one prepared simulation")

    p = sub.add_parser("econ", help="fabric cost and power comparison")
    p.add_argument("--config", default=DEFAULT_ECON_CONFIG,
                   help="econ INI file with unit values")
    p.add_argument("--scenario", default=None,
                   help="take the topology from this scenario instead")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("table4", help="OCS scalability table")
    p.add_argument("--out", default="table4.csv")
    return ap, sub.choices


_CONFIG_ERRORS = (ConfigError, InvalidParams, InvalidNicConfig, ParseError,
                  NotMember, UnsupportedKind, EmptyInput,
                  CyclicDependency, MissingDependency, ConflictDeadlock)
_INFEASIBLE_ERRORS = (DegreeInfeasible, RadixExceeded)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, subcommands = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # exits 2 with the subcommand's own usage line
        subcommands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    # Looked up on every call rather than stored in the cached parser, so a
    # replaced cmd_* function takes effect.
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except _INFEASIBLE_ERRORS as e:
        print(f"error: infeasible: {e}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
