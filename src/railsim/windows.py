"""Idle-window analysis between parallelism phases on a rail.

A phase is a maximal run of consecutive scale-out collectives (ordered by
communication start) sharing one (parallelism axis, collective kind) label;
TP traffic never appears in rail phases.  The idle window between phases P1
and P2 is

    window = [ max over c in P1 of end(c),  min over c in P2 of start(c) ]

where a collective's start is the join time of its slowest member rank.
The caller supplies that start and the end of every row in two lists
indexed by DAG row: a full-connectivity run's `Timeline.start` (the latest
end among the dependencies) or a trace's `observed_start` (the parser keeps
the latest over a collective's records).  A row whose start or end is None
is not covered.  Negative gaps mean the phases overlap and are reported
separately, not as windows.  A rail's collectives come from
`EventDag.scaleout_by_rail`, which buckets them by rail once per DAG, so
analysing one rail reads only that rail's rows.  A generated DAG or a held
trace holds rail 0's rows alone (`EventDag.rails`); every other rail it
stands for has rail 0's windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import EmptyInput, InvalidParams
from .workload import EventDag

# Per-row times: a row's communication start, or its end; None where unknown.
Times = Sequence[Optional[float]]


@dataclass
class Phase:
    id: str
    groups: frozenset  # CommGroup ids
    events: tuple  # DAG rows, in communication-start order
    axis: str = ""
    kind: str = ""


@dataclass
class Window:
    rail: int
    before_phase: str
    after_phase: str
    start: float
    end: float
    size: float
    next_volume_bytes: int
    volume_class: str = ""


@dataclass
class Overlap:
    rail: int
    before_phase: str
    after_phase: str
    magnitude: float  # seconds by which P2 starts before P1 ends


@dataclass
class WindowReport:
    windows: List[Window] = field(default_factory=list)
    overlaps: List[Overlap] = field(default_factory=list)


def rail_collectives(dag: EventDag, start: Times, end: Times, rail: int) -> List[int]:
    """Rows of the scale-out collectives on `rail` that `start` and `end`
    cover, ordered by communication start, then id."""
    ids = dag.ids
    keyed = [(start[i], ids[i], i) for i in dag.scaleout_by_rail().get(rail, ())
             if start[i] is not None and end[i] is not None]
    keyed.sort()
    return [i for _, _, i in keyed]


def segment_phases(dag: EventDag, start: Times, end: Times, rail: int) -> List[Phase]:
    """Split a rail's collectives into parallelism phases."""
    phases: List[Phase] = []
    current: List[int] = []
    key = None
    group, coll_kind = dag.group, dag.coll_kind

    def flush():
        if current:
            phases.append(Phase(id=f"rail{rail}.ph{len(phases)}",
                                groups=frozenset(group[i] for i in current),
                                events=tuple(current), axis=key[0], kind=key[1]))

    for i in rail_collectives(dag, start, end, rail):
        k = (dag.groups[group[i]].axis, coll_kind[i])
        if k != key:
            flush()
            current = []
            key = k
        current.append(i)
    flush()
    return phases


def analyze_rail(dag: EventDag, start: Times, end: Times, rail: int) -> WindowReport:
    """Windows (and overlaps) between each consecutive phase pair on `rail`."""
    report = WindowReport()
    phases = segment_phases(dag, start, end, rail)
    nbytes, ranks = dag.bytes, dag.ranks
    for p1, p2 in zip(phases, phases[1:]):
        w_start = max(end[i] for i in p1.events)
        w_end = min(start[i] for i in p2.events)
        if w_end >= w_start:
            volume = sum(nbytes[i] * len(ranks[i]) for i in p2.events)
            report.windows.append(Window(rail=rail, before_phase=p1.id, after_phase=p2.id,
                                         start=w_start, end=w_end, size=w_end - w_start,
                                         next_volume_bytes=volume))
        else:
            report.overlaps.append(Overlap(rail=rail, before_phase=p1.id, after_phase=p2.id,
                                           magnitude=w_start - w_end))
    return report


def window_cdf(windows: Iterable) -> List[Tuple[float, float]]:
    """Empirical CDF of window sizes: sorted (size, cumulative fraction) pairs."""
    sizes = sorted(w.size if isinstance(w, Window) else float(w) for w in windows)
    if not sizes:
        raise EmptyInput("no windows")
    n = len(sizes)
    return [(s, (i + 1) / n) for i, s in enumerate(sizes)]


@dataclass
class VolumeClassStats:
    label: str
    lo: float  # inclusive lower bound in bytes (-inf for the first class)
    hi: float  # exclusive upper bound (inf for the last class)
    count: int
    mean_size: float
    min_size: float
    max_size: float


def classify_by_volume(windows: Sequence[Window], class_edges: Sequence[float]) -> List[VolumeClassStats]:
    """Per-volume-class statistics of window sizes.

    ``class_edges`` are finite, non-negative, strictly increasing byte
    thresholds defining len(edges)+1 classes; a volume exactly on an edge
    goes to the upper class.
    """
    edges = list(class_edges)
    if not all(math.isfinite(e) for e in edges):
        raise InvalidParams(f"class edges must be finite, got {edges}")
    if any(e < 0 for e in edges):
        raise InvalidParams(f"class edges must be >= 0 bytes, got {edges}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise InvalidParams("class edges must be strictly increasing")
    bounds = [float("-inf")] + edges + [float("inf")]
    labels = []
    for i in range(len(bounds) - 1):
        if i == 0:
            labels.append(f"<{edges[0]:g}B" if edges else "all")
        elif i == len(bounds) - 2:
            labels.append(f">={edges[-1]:g}B")
        else:
            labels.append(f"[{edges[i - 1]:g}B,{edges[i]:g}B)")
    buckets: List[List[float]] = [[] for _ in labels]
    for w in windows:
        idx = sum(1 for e in edges if w.next_volume_bytes >= e)
        w.volume_class = labels[idx]
        buckets[idx].append(w.size)
    stats = []
    for i, sizes in enumerate(buckets):
        if sizes:
            stats.append(VolumeClassStats(labels[i], bounds[i], bounds[i + 1], len(sizes),
                                          sum(sizes) / len(sizes), min(sizes), max(sizes)))
        else:
            stats.append(VolumeClassStats(labels[i], bounds[i], bounds[i + 1], 0, 0.0, 0.0, 0.0))
    return stats


def eq1_bound(pp: int, n_layer: int, n_microbatch: int, has_cp: bool, has_ep: bool) -> int:
    """Upper bound on the number of idle windows in one training iteration.

    Term by term: pipeline/FSDP forward-backward interleaving, first-microbatch
    forward interleaving and per-microbatch interleaving contributed by CP/EP,
    CP-with-EP interleaving, plus a constant for the pipeline state
    transitions (warm-up, steady, cool-down, sync).
    """
    if pp < 1:
        raise InvalidParams("pp must be >= 1")
    if n_layer < pp:
        raise InvalidParams(f"n_layer {n_layer} < pp {pp}")
    if n_microbatch < 1:
        raise InvalidParams("n_microbatch must be >= 1")
    # Ceiling split keeps the bound valid when pp does not divide n_layer.
    per_stage = -(-n_layer // pp)
    total = 4 * (pp - 1)
    if has_cp or has_ep:
        total += 2 * per_stage - 1
        total += 4 * n_microbatch
    if has_cp and has_ep:
        total += 2 * n_microbatch * (2 * per_stage - 1)
    total += 4
    return total
