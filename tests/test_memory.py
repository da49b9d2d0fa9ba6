"""Peak memory per event of the generator, the trace loader, the trace
writer and `sim` plus its writer.

tracemalloc counts the bytes Python allocates, so the bounds do not depend
on the allocator or on what the process held before.  Each bound sits about
halfway between the per-event peak of a design that kept extra copies of
every event and that of the design that holds each event once.  Measured on
Python 3.10, 3.11 and 3.12 at these tests' shapes: the loader 580-616
B/event with a dependents list per event for its cycle check (594 on 3.11),
441-474 with the depth-first check over `deps` (452 on 3.11), and on 3.11
190 holding one rail of a rail-symmetric trace, 198 comparing each twin
pass with one template's text, 188 building that template from the rows
after reading them and 181 building it as the rail-0 records are read
(453 for a trace that is not, parsed row by row after the held parse
gave up); the trace writer 428-438 with the whole
file's text, 132-135 writing it in chunks.  Writing a DAG that holds one
rail, on 3.11: 195 B/event formatting each twin as it is written, with
every rail's event ids kept for naming dependencies, and 24 writing each
block's twin passes from one template.  `sim` plus writer, on Python
3.11: 413 B/event compiling and timing every rail of the G=4 shape
(409-424 on 3.10-3.12), 247 compiling and timing rail 0 and copying its
times to the other rails, 160 when the DAG holds rail 0 alone and the
writer formats the twins as it writes, 143 when it writes them from a
table of `{rail},{rank}` texts per rank (142 in a later reading), and 143
when each row whose ranks join at one time is written in one join over
a table of texts per rank tuple.  The generator on the 16x8 shape,
on Python 3.11: 371 B/event building every rail's rows, 51 building rail
0's and the TP rows.
"""

import gc
import tracemalloc

from railsim import generate_3d_schedule, load_trace, save_trace, simulate
from railsim.cli import _write_sim_outputs

from conftest import CALIBRATION, PROVISIONED, make_params, make_topo

GENERATE_BYTES_PER_EVENT = 211
LOAD_TRACE_BYTES_PER_EVENT = 523
LOAD_HELD_TRACE_BYTES_PER_EVENT = 320
SAVE_TRACE_BYTES_PER_EVENT = 109
SIM_WRITE_BYTES_PER_EVENT = 203


def peak_bytes(fn) -> int:
    """Peak of the bytes allocated while `fn` runs, what it returns included."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dag_on(pp, dp, gpus, n_layer, n_microbatch):
    topo = make_topo(num_domains=pp * dp, gpus_per_domain=gpus, nic_ports=2, delay=0.025)
    params = make_params(pp=pp, dp=dp, tp=gpus, n_layer=n_layer,
                         n_microbatch=n_microbatch, **CALIBRATION)
    return generate_3d_schedule(params, topo), topo


def test_generate():
    topo = make_topo(num_domains=16, gpus_per_domain=8, nic_ports=2, delay=0.025)
    params = make_params(pp=4, dp=4, tp=8, n_layer=32, n_microbatch=8, **CALIBRATION)
    dag = generate_3d_schedule(params, topo)  # 18,960 events
    per_event = peak_bytes(lambda: generate_3d_schedule(params, topo)) / len(dag)
    assert per_event <= GENERATE_BYTES_PER_EVENT


def test_load_trace(tmp_path):
    dag, _ = dag_on(4, 2, 4, 16, 4)  # 1,480 events
    path = str(tmp_path / "trace.csv")
    save_trace(dag, path)
    assert load_trace(path).rails == 4
    per_event = peak_bytes(lambda: load_trace(path)) / len(dag)
    assert per_event <= LOAD_HELD_TRACE_BYTES_PER_EVENT


def test_load_asymmetric_trace(tmp_path):
    # The same trace with one rail-1 record's bytes changed: its rails
    # differ, so the held parse gives up and the trace is parsed row by row.
    dag, _ = dag_on(4, 2, 4, 16, 4)
    path = tmp_path / "trace.csv"
    save_trace(dag, str(path))
    text = path.read_text()
    twin = next(line for line in text.splitlines() if line.startswith("f.p0.q0.m0.j0.l1,"))
    rec = twin.split(",")
    rec[6] = "1"
    path.write_text(text.replace(twin, ",".join(rec)))
    assert load_trace(str(path)).rails == 1
    per_event = peak_bytes(lambda: load_trace(str(path))) / len(dag)
    assert per_event <= LOAD_TRACE_BYTES_PER_EVENT


def test_save_trace(tmp_path):
    # More trace lines than one chunk of the writer.
    dag, _ = dag_on(4, 4, 4, 32, 4)  # 5,000 events
    path = str(tmp_path / "trace.csv")
    per_event = peak_bytes(lambda: save_trace(dag, path)) / len(dag)
    assert per_event <= SAVE_TRACE_BYTES_PER_EVENT


def test_sim_and_writer_above_the_dag(tmp_path):
    # More timeline rows than one chunk of the writer.
    dag, topo = dag_on(4, 4, 4, 32, 4)  # 5,000 events
    out = str(tmp_path / "sim")
    per_event = peak_bytes(
        lambda: _write_sim_outputs(simulate(dag, topo, PROVISIONED), out)) / len(dag)
    assert per_event <= SIM_WRITE_BYTES_PER_EVENT
