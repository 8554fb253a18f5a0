"""Pins of the small-scale Table-I traces themselves.

Every strategy replays the same trace, so a trace kernel that drifts
moves every metric at once.  ``TRACE_PINS`` holds a sha256 of each of
the nine small-scale traces, built from scratch (``use_cache=False``),
with GROMOS at the two machine sizes its block pre-placement depends
on.  A kernel rewrite in ``repro.apps`` must keep every pin, and a
build must leave no reference cycle behind.
"""

import gc
import hashlib

import pytest

from repro.apps import gromos_trace, idastar_trace, nqueens_trace
from repro.experiments.common import _gromos_kwargs, _ida_configs, _queens_sizes

#: workload key (GROMOS with its node count) -> sha256 of the trace
TRACE_PINS = {
    "queens-10":
        "e5e0bb8e3262a08460f356606666b78be6a6f3ef5a35b7fa3663ba0e790c96a6",
    "queens-11":
        "fd9806f75c1e361df9abe99e894617b60ab65ad3422f98efca72178e6c215d38",
    "queens-12":
        "05db1abad924fbc346b05ad446dab689b3789051e7ca6c64fcc26b3aa5a9520d",
    "ida-1":
        "956e65649ae9ddf2b21155b549727e55b9326a3bf1971e2bc3f90e0cb7cebf33",
    "ida-2":
        "fcd5fa7bb0b828f4fc58ef71c3277aa5f69af25f3734917e4af4bedec03f4ce4",
    "ida-3":
        "90470043b71680f2ab36ba3dcc450a48a108b069d2d536241e265d86041ab087",
    "gromos-8@32":
        "7753f9adcaecf74e4a65b9153902daeb894a022bfb2af768aae1aaf45d99302d",
    "gromos-8@64":
        "cd551bcfd0f2abdc0205df72882545bf3c9b297ba08cf2cd1f644b86ed2ec9d7",
    "gromos-12@32":
        "12c5b4db2aafc0653cb3e75b6f174bd4bba017f0eafc198bd7e5d1d170672ce3",
    "gromos-12@64":
        "e07ad60bdead03b6006ae8c152866ed455a2ff2a811077d2d6781148011059ac",
    "gromos-16@32":
        "db83d33d13b1586ddb7505619dd1799acd2d89e11e6ea5c405c10c05ab7fc753",
    "gromos-16@64":
        "d534adf32af51e33be943b8f5b9d85c83d82c8c3ebaab78c1735fe5e8e7e78b1",
}


def trace_digest(trace) -> str:
    """sha256 over the trace header and every task's fields, in order."""
    h = hashlib.sha256()
    h.update(repr((trace.name, trace.sec_per_unit, trace.description)).encode())
    for t in trace.tasks:
        h.update(repr((t.id, t.work, t.wave, t.children, t.pinned, t.home,
                       t.data_bytes, t.label)).encode())
    return h.hexdigest()


def _factories():
    for n, depth in _queens_sizes("small"):
        yield f"queens-{n}", lambda n=n, depth=depth: nqueens_trace(
            n, depth, use_cache=False)
    for num, cfg in _ida_configs("small").items():
        yield f"ida-{num}", lambda cfg=cfg: idastar_trace(cfg, use_cache=False)
    for cutoff in (8.0, 12.0, 16.0):
        for nodes in (32, 64):
            yield f"gromos-{cutoff:g}@{nodes}", lambda c=cutoff, nn=nodes: (
                gromos_trace(c, num_nodes=nn, use_cache=False,
                             **_gromos_kwargs("small")))


FACTORIES = dict(_factories())


@pytest.mark.parametrize("key", sorted(FACTORIES))
def test_small_table1_trace_is_pinned(key):
    assert trace_digest(FACTORIES[key]()) == TRACE_PINS[key]


@pytest.mark.parametrize("key", ["queens-10", "ida-1", "gromos-8@32"])
def test_building_a_trace_leaves_no_reference_cycle(key):
    # a cycle keeps a dropped trace's tasks alive until a full collection
    gc.collect()
    gc.disable()
    try:
        FACTORIES[key]()
        assert gc.collect() == 0
    finally:
        gc.enable()
