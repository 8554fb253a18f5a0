"""Tracer unit behavior: detaching, span nesting, aggregation."""

from types import SimpleNamespace

from repro.machine import Machine, MeshTopology
from repro.obs import Tracer
from repro.obs.attribution import node_breakdown


def _spans(tr: Tracer, cat=None) -> list[tuple]:
    """The completed spans as ``(node, cat, name, start, dur, args)``."""
    return [rec[1:] for rec in tr.records
            if rec[0] == "X" and (cat is None or rec[2] == cat)]


class TestDisabledPath:
    def test_machine_detach(self):
        m = Machine(MeshTopology(2, 2), tracer=Tracer())
        assert m.tracer is not None
        m.attach_tracer(None)
        assert m.tracer is None and m.sim._tracer is None


class TestSpans:
    def test_complete_span(self):
        tr = Tracer()
        tr.complete(3, "cpu", "task", 1.0, 0.5, {"k": 1})
        assert tr.records == [("X", 3, "cpu", "task", 1.0, 0.5, {"k": 1})]

    def test_begin_end_nesting_same_key(self):
        tr = Tracer()
        tr.begin(0, "phase", "gather", 0.0, {"outer": True})
        tr.begin(0, "phase", "gather", 1.0, {"outer": False})
        tr.end(0, "phase", "gather", 2.0)
        tr.end(0, "phase", "gather", 5.0)
        inner, outer = _spans(tr, "phase")
        assert inner == (0, "phase", "gather", 1.0, 1.0, {"outer": False})
        assert outer == (0, "phase", "gather", 0.0, 5.0, {"outer": True})
        assert tr.open_spans() == 0

    def test_end_merges_args(self):
        tr = Tracer()
        tr.begin(0, "phase", "gather", 0.0, {"phase": 1})
        tr.end(0, "phase", "gather", 2.0, {"outcome": "plan"})
        ((*_, args),) = _spans(tr)
        assert args == {"phase": 1, "outcome": "plan"}

    def test_unmatched_end_ignored(self):
        tr = Tracer()
        tr.end(0, "phase", "transfer", 1.0)
        assert len(tr) == 0

    def test_spans_keyed_per_node(self):
        tr = Tracer()
        tr.begin(0, "phase", "gather", 0.0)
        tr.begin(1, "phase", "gather", 1.0)
        tr.end(0, "phase", "gather", 5.0)
        assert tr.open_spans() == 1
        (span,) = _spans(tr)
        assert span[0] == 0 and span[4] == 5.0

    def test_max_records_backstop(self):
        tr = Tracer(max_records=2)
        for i in range(5):
            tr.instant(0, "net", "send:x", float(i))
        assert len(tr) == 2
        assert tr.dropped == 3

    def test_cpu_seconds_aggregation(self):
        tr = Tracer()
        tr.complete(0, "cpu", "task", 0.0, 1.0)
        tr.complete(0, "cpu", "task", 2.0, 0.5)
        tr.complete(0, "cpu", "overhead", 3.0, 0.25)
        tr.complete(1, "cpu", "task", 0.0, 2.0)
        tr.complete(1, "task", "task:7", 0.0, 2.0)  # not cat "cpu"
        metrics = SimpleNamespace(T=4.0, num_nodes=2)
        assert node_breakdown(tr, metrics) == [
            {"node": 0, "task": 1.5, "overhead": 0.25, "idle": 2.25,
             "tasks": 0, "phases": 0},
            {"node": 1, "task": 2.0, "overhead": 0.0, "idle": 2.0,
             "tasks": 1, "phases": 0},
        ]

    def test_from_records_roundtrip(self):
        tr = Tracer()
        tr.complete(0, "cpu", "task", 0.0, 1.0)
        tr.instant(1, "net", "send:x", 0.5)
        clone = Tracer.from_records(tr.records, dropped=4)
        assert clone.records == tr.records
        assert clone.dropped == 4
        assert len(_spans(clone, "cpu")) == 1
