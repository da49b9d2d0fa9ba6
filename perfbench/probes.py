"""Probes around the public names the CLI calls through.

`Probes.install` replaces module attributes of `railsim.cli` and
`railsim.fabric` with wrappers; `uninstall` puts the originals back.  The
package source is not edited.  Untraced, only `simulate` is wrapped, to
capture each `SimResult`'s logs for the checks.  Results are captured
only while `captured` is a list.  Traced, every layer
boundary below records a span (name, start, end, parent, workload, phase),
kept in memory and written out as JSON when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional

# (module, attribute, span name); the span name's prefix is the layer.
TRACED = (
    ("railsim.cli", "cmd_gen", "cli.cmd_gen"),
    ("railsim.cli", "cmd_windows", "cli.cmd_windows"),
    ("railsim.cli", "cmd_sim", "cli.cmd_sim"),
    ("railsim.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("railsim.cli", "load_scenario", "cli.load_scenario"),
    ("railsim.cli", "generate_3d_schedule", "workload.generate_3d_schedule"),
    ("railsim.cli", "load_trace", "trace.load_trace"),
    ("railsim.cli", "save_trace", "trace.save_trace"),
    ("railsim.cli", "analyze_rail", "windows.analyze_rail"),
    ("railsim.cli", "sweep_delay", "fabric.sweep_delay"),
    ("railsim.cli", "simulate", "fabric.simulate"),
    ("railsim.fabric", "simulate", "fabric.simulate"),
    ("railsim.fabric", "profile_iteration", "control.profile_iteration"),
)
SIMULATE = tuple(t for t in TRACED if t[1] == "simulate")


class Span:
    """One call across a layer boundary.

    `cpu` is the calling thread's CPU time inside the span.  A span in a
    worker thread is charged that instead of its wall time, which also
    counts the waits for the interpreter lock held by the other workers.
    """

    __slots__ = ("id", "name", "start", "end", "cpu", "worker", "parent",
                 "phase", "counts")

    def __init__(self, id, name, parent, phase, worker):
        self.id, self.name, self.parent, self.phase = id, name, parent, phase
        self.worker, self.counts = worker, {}
        self.cpu = time.thread_time()
        self.start = self.end = time.perf_counter()

    @property
    def length(self) -> float:
        return self.cpu if self.worker else self.end - self.start


class Probes:
    """Wrappers that capture simulate results and, when tracing, spans."""

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.phase = "setup"
        self.spans: List[Span] = []
        self.captured: Optional[List[dict]] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._saved: List[tuple] = []

    def _stack(self) -> List[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: List[Span]) -> Optional[int]:
        # Worker threads (sweep --jobs) hang under the main thread's open span.
        top = stack or self._main_stack
        return top[-1].id if top else None

    def install(self) -> List[str]:
        """Wrap every probe target; returns the targets the package lacks."""
        missing = []
        for mod_name, attr, span_name in (TRACED if self.trace else SIMULATE):
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span_name))
        return missing

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span_name: str):
        sig = inspect.signature(fn)
        capture = span_name == "fabric.simulate"

        def probe(*args, **kwargs):
            span = None
            if self.trace:
                stack = self._stack()
                span = Span(next(self._ids), span_name, self._parent(stack),
                            self.phase, stack is not self._main_stack)
                stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if capture and self.captured is not None:
                    self.captured.append({"error": type(e).__name__})
                raise
            finally:
                if span is not None:
                    span.end = time.perf_counter()
                    span.cpu = time.thread_time() - span.cpu
                    stack.pop()
                    self.spans.append(span)
            keep = capture and self.captured is not None
            if keep or span is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if keep:
                    self.captured.append(self._record(bound, result))
                if span is not None:
                    self._count(span, bound, result)
            return result

        return probe

    def _record(self, args: dict, res) -> dict:
        topo = args["topo"]
        rec = {
            "error": None,
            "makespan": res.makespan,
            "overhead": res.overhead_vs_baseline,
            "reconfig_log": res.reconfig_log,
            "circuit_log": res.circuit_log,
            "transfer_log": res.transfer_log,
            "delay": topo.rail_switch.reconfig_delay if topo.rail_switch.is_ocs else 0.0,
            "nic_ports": topo.nic.ports,
            "events": len(args["dag"].events),
        }
        if self.trace:  # the full result, for circuit waits and baseline re-runs
            rec["result"] = res
            rec["args"] = (args["dag"], topo, args.get("policy"))
        return rec

    @staticmethod
    def _count(span: Span, args: dict, result) -> None:
        name = span.name
        if name == "workload.generate_3d_schedule":
            span.counts["events"] = len(result.events)
        elif name in ("trace.load_trace", "trace.save_trace"):
            span.counts["bytes"] = os.path.getsize(args["path"])
        elif name == "windows.analyze_rail":
            span.counts["windows"] = len(result.windows)
            span.counts["overlaps"] = len(result.overlaps)

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump([{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                        "cpu": s.cpu, "worker": s.worker,
                        "parent": s.parent, "workload": self.workload,
                        "phase": s.phase, "counts": s.counts}
                       for s in sorted(self.spans, key=lambda s: s.id)], f)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span length minus the part of it that its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.id, ())
        if s.worker:  # children run nested in the same thread
            out[s.id] = s.cpu - sum(c.cpu for c in kids)
            continue
        covered, lo_seen = 0.0, s.start
        for c in sorted(kids, key=lambda c: c.start):
            lo, hi = max(c.start, lo_seen), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                lo_seen = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_times(spans: List[Span], phases: List[str]) -> Dict[str, float]:
    """Each layer's time in its fastest pass; `phases` has one name per pass."""
    selfs = self_times(spans)
    names = {s.id: s.name for s in spans}
    per_pass = []
    for phase in phases:
        dur: Dict[str, float] = {}
        own: Dict[str, float] = {}
        for s in spans:
            if s.phase == phase:
                dur[s.name] = dur.get(s.name, 0.0) + s.length
                if names.get(s.parent) == "fabric.sweep_delay":
                    dur["sweep.children"] = dur.get("sweep.children", 0.0) + s.length
                key = "cli.cmd" if s.name.startswith("cli.cmd_") else s.name
                own[key] = own.get(key, 0.0) + selfs[s.id]
        per_pass.append({
            "workload.generate_s": own.get("workload.generate_3d_schedule", 0.0),
            "fabric.simulate_s": dur.get("fabric.simulate", 0.0),
            "fabric.sweep_s": dur.get("fabric.sweep_delay", 0.0),
            "fabric.sweep_simulate_s": dur.get("sweep.children", 0.0),
            "control.profile_s": dur.get("control.profile_iteration", 0.0),
            "trace.load_s": dur.get("trace.load_trace", 0.0),
            "windows.analyze_s": dur.get("windows.analyze_rail", 0.0),
            "cli.scenario_s": own.get("cli.load_scenario", 0.0),
            "cli.write_s": own.get("cli.cmd", 0.0),
        })
    return {k: min(p[k] for p in per_pass) for k in per_pass[0]}


def span_counts(spans: List[Span], phase: str) -> Dict[str, float]:
    """Work counts and call counts recorded in one phase."""
    out: Dict[str, float] = {"simulate_calls": 0}
    for s in spans:
        if s.phase != phase:
            continue
        if s.name == "fabric.simulate":
            out["simulate_calls"] += 1
        for k, v in s.counts.items():
            key = f"{s.name.split('.')[0]}.{k}"
            out[key] = out.get(key, 0) + v
    return out
