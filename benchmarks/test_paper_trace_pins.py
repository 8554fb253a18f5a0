"""Pins of the paper-scale Table-I traces themselves.

The paper-scale counterpart of ``tests/apps/test_trace_pins.py``: a
sha256 (the same ``trace_digest``) of each of the nine paper-scale
traces, built from scratch (``use_cache=False``), with GROMOS at the
three machine sizes of Table I.  A kernel rewrite in ``repro.apps`` must
keep every pin.  The builds run the real searches at full size, about
half a minute in all, so this module sits outside the tier-1 suite:

    PYTHONPATH=src python -m pytest benchmarks/test_paper_trace_pins.py
"""

import pytest

from repro.apps import gromos_trace, idastar_trace, nqueens_trace
from repro.experiments.common import _gromos_kwargs, _ida_configs, _queens_sizes
from tests.apps.test_trace_pins import trace_digest

#: workload key (GROMOS with its node count) -> sha256 of the trace
PAPER_TRACE_PINS = {
    "queens-13":
        "c857b05d58bac79d33342f739c39a0f282ff43fe3b07af99fd5906b186033648",
    "queens-14":
        "410ed0b69e2b85784fc9395855c76a07e54b56b9dddcab4c3315794c07a3fe9f",
    "queens-15":
        "8fa990028bab3a4a70dd25bba3d0abe544a073d252c2e01849afeaef3555e7cd",
    "ida-1":
        "e44c3c795413c2bd5fb333d4d89013b8414251ef2de369a3cbde044a04e9da90",
    "ida-2":
        "e74046f47691b8b574354fe2ad1900da3a27e10bec65a3b2a2f5b27095c54d78",
    "ida-3":
        "dd532fa9ea9f30fe0c9ea24d8967c65467e13f9eed2021c1966efe83f32090c0",
    "gromos-8@32":
        "dc028ca45563c7335a92673d0656af308d4faaa9c14e3942e3e93967d787b9ab",
    "gromos-8@64":
        "2bc52100febd7b076d8f469f6e55013cece8e3812277593a5db2f3fd3d17b629",
    "gromos-8@128":
        "f9c68663cc8874daecd28ad2d0f205578c9092d6acb6837dc647e15762bd83aa",
    "gromos-12@32":
        "3de700057f75907344e9488b6ca72c4501e7faf193c980a575d367cc833cd04a",
    "gromos-12@64":
        "80392aba9b2c3462ededcf96c905b03d6173c2ead96b2c9b6e7380364d31cf5d",
    "gromos-12@128":
        "1acd03739cec5cd62c158414ef6a076fc7aa946fc11b907a78e250b18a11ed98",
    "gromos-16@32":
        "72abe376f67d3ef264ed3446592a9fef99e929bac99452be3f6218829d7aa560",
    "gromos-16@64":
        "f53add78cdee8413e6fdd85814cbc13fe6a6e8240ff45b15268e21b2e07d29ff",
    "gromos-16@128":
        "61950764eb473182dd8ddc963b0b08905d56e537eb471e1bbac7d0d1ecd3a099",
}


def _factories():
    for n, depth in _queens_sizes("paper"):
        yield f"queens-{n}", lambda n=n, depth=depth: nqueens_trace(
            n, depth, use_cache=False)
    for num, cfg in _ida_configs("paper").items():
        yield f"ida-{num}", lambda cfg=cfg: idastar_trace(cfg, use_cache=False)
    for cutoff in (8.0, 12.0, 16.0):
        for nodes in (32, 64, 128):
            yield f"gromos-{cutoff:g}@{nodes}", lambda c=cutoff, nn=nodes: (
                gromos_trace(c, num_nodes=nn, use_cache=False,
                             **_gromos_kwargs("paper")))


FACTORIES = dict(_factories())


@pytest.mark.parametrize("key", sorted(FACTORIES))
def test_paper_table1_trace_is_pinned(key):
    assert trace_digest(FACTORIES[key]()) == PAPER_TRACE_PINS[key]
