"""Peak memory per event of the trace loader and of `sim` plus its writer.

tracemalloc counts the bytes Python allocates, so the bounds do not depend
on the allocator or on what the process held before.  Each bound sits about
halfway between the per-event peak of the design that kept extra copies of
every event (dependency names per record, a string per row for kind and
stream, a gating list per dependency edge, the whole timeline.csv text) and
the design that holds each event once.  Measured on Python 3.10, 3.11 and
3.12 at these tests' shapes: the loader 835-895 B/event before and 580-616
after, `sim` plus writer 629-652 before and 409-424 after.
"""

import gc
import tracemalloc

from railsim import generate_3d_schedule, load_trace, save_trace, simulate
from railsim.cli import _write_sim_outputs

from conftest import CALIBRATION, PROVISIONED, make_params, make_topo

LOAD_TRACE_BYTES_PER_EVENT = 735
SIM_WRITE_BYTES_PER_EVENT = 530


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


def test_load_trace(tmp_path):
    dag, _ = dag_on(4, 2, 4, 16, 4)  # 1,480 events
    path = str(tmp_path / "trace.csv")
    save_trace(dag, path)
    per_event = peak_bytes(lambda: load_trace(path)) / len(dag)
    assert per_event <= LOAD_TRACE_BYTES_PER_EVENT


def test_sim_and_writer_above_the_dag(tmp_path):
    # More timeline rows than one chunk of the writer.
    dag, topo = dag_on(4, 4, 4, 32, 4)  # 5,000 events
    out = str(tmp_path / "sim")
    per_event = peak_bytes(
        lambda: _write_sim_outputs(simulate(dag, topo, PROVISIONED), out)) / len(dag)
    assert per_event <= SIM_WRITE_BYTES_PER_EVENT
