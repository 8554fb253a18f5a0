"""The one-pass trace consumers equal the reference implementation.

Every case feeds the same emissions to a :class:`repro.obs.Tracer` and
to the dict-record reference tracer in ``_reference.py``, then asserts
that the attribution results are equal and the exported Chrome file and
JSONL stream are equal byte for byte.  The synthetic cases pin the sweep
rules one at a time; the real runs cover one traced cell per strategy,
where the node table and the T/Th/Ti check also equal the
float-summing reference within 1e-12 s, the phase table within the
sweep's 1 ns rounding, and the report text is identical.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments.common import make_machine, strategy_factories, workload
from repro.obs import Tracer
from repro.obs.attribution import (
    attribution_rollup,
    collapsed_stacks,
    node_breakdown,
    phase_breakdown_text,
    phase_totals,
    reconcile,
    subsystem_attribution,
)
from repro.obs.export import trace_to_jsonl, write_chrome_trace, write_jsonl_trace
from repro.session import Session

from . import _reference as ref

CASES = {
    # two spans of equal extent: the earlier-emitted one is the parent
    "equal-extent-tie": [
        ("complete", 0, "cpu", "inner", 1.5, 0.5),
        ("complete", 0, "cpu", "first", 1.0, 2.0),
        ("complete", 0, "cpu", "second", 1.0, 2.0),
        ("complete", 0, "phase", "second", 1.0, 2.0),
        ("complete", 0, "phase", "first", 1.0, 2.0),
    ],
    "zero-duration": [
        ("complete", 0, "cpu", "root", 0.0, 4.0),
        ("complete", 0, "cpu", "z-start", 0.0, 0.0),
        ("complete", 0, "cpu", "z-mid", 2.0, 0.0),
        ("complete", 0, "cpu", "z-mid-again", 2.0, 0.0),
        ("complete", 0, "cpu", "z-end", 4.0, 0.0),
        ("complete", 1, "task", "alone", 1.0, 0.0),
    ],
    # b overlaps a's end without nesting: a new root, the stack cleared,
    # so "after" does not nest in "outer" on node 1 either
    "straddler": [
        ("complete", 0, "phase", "a", 0.0, 10.0),
        ("complete", 0, "phase", "a-child", 1.0, 2.0),
        ("complete", 0, "phase", "b", 5.0, 10.0),
        ("complete", 0, "phase", "b-child", 6.0, 1.0),
        ("complete", 0, "phase", "late-b-child", 12.0, 1.0),
        ("complete", 1, "phase", "outer", 0.0, 100.0),
        ("complete", 1, "phase", "inner", 10.0, 10.0),
        ("complete", 1, "phase", "straddler", 15.0, 15.0),
        ("complete", 1, "phase", "after", 40.0, 10.0),
    ],
    "negative-duration": [
        ("complete", 0, "cpu", "root", 0.0, 5.0),
        ("complete", 0, "cpu", "negative", 1.0, -0.5),
        ("begin", 0, "phase", "backwards", 3.0),
        ("end", 0, "phase", "backwards", 2.0),
    ],
    "quote-and-non-ascii": [
        ("complete", 0, "cpu", 'say "hi"', 0.0, 1.0, {"note": "naïve ☃"}),
        ("complete", 0, "cpu", "naïve\\☃", 0.25, 0.5),
        ("instant", 1, 'custom "cat"', "ünïcode\n", 0.5, {'k"ey': "v"}),
        ("complete", 1, 'custom "cat"', "ü", 0.0, 1.0),
    ],
    "nested-list-args": [
        ("complete", 0, "mwa", "step", 0.0, 1.0,
         {"moves": [[0, 1], [2, [3, 4]]], "map": {"k": [1.5, None, True]}}),
        ("instant", 1, "net", "send:task", 0.5, {"path": [[0, 0], (0, 1)]}),
        ("begin", 0, "phase", "gather", 0.0, {"phase": 1}),
        ("end", 0, "phase", "gather", 2.0, {"outcome": ["plan", [1]]}),
        ("complete", 0, "cpu", "empty-args", 0.0, 1.0, {}),
    ],
    "counters": [
        ("counter", 0, "sim", "events_processed", 1e-3, 256),
        ("counter", 0, "sim", "pending_events", 1e-3, 12),
        ("counter", 2, "net", "link_backlog", 0.25, 3.5),
        ("counter", 1, "fault", 'dead "n"', 0.5, 1),
        ("complete", 1, "fault", "window", 0.0, 1.0),
    ],
    "max-records": [
        ("complete", 0, "cpu", "kept", 0.0, 1.0),
        ("instant", 0, "net", "send:x", 0.5),
        ("counter", 0, "sim", "events_processed", 0.5, 1),
        ("complete", 0, "cpu", "dropped", 2.0, 1.0),
        ("instant", 0, "net", "send:y", 2.5),
        ("counter", 0, "sim", "events_processed", 2.5, 2),
    ],
    "empty": [],
}


def _pair(calls, max_records=None):
    """The tracer under test and the reference, fed the same calls."""
    new, old = Tracer(max_records), ref.Tracer(max_records)
    for method, *args in calls:
        getattr(new, method)(*args)
        getattr(old, method)(*args)
    return new, old


def _assert_same(new, old, tmp_path, label="unit"):
    assert attribution_rollup(new) == ref.attribution_rollup(old)
    assert subsystem_attribution(new) == ref.subsystem_attribution(old)
    assert collapsed_stacks(new) == ref.collapsed_stacks(old)
    assert reconcile(new) == ref.reconcile(old)
    assert reconcile(new)["delta_s"] == 0.0
    assert ([rec[1:] for rec in new.records if rec[0] == "X"]
            == [(s.node, s.cat, s.name, s.start, s.dur, s.args) for s in old.spans()])
    assert (len(new), new.dropped) == (len(old.records), old.dropped)

    got = write_chrome_trace(new, tmp_path / "new.json", label=label)
    want = ref.write_chrome_trace(old, tmp_path / "ref.json", label=label)
    assert got.read_bytes() == want.read_bytes()
    lines = list(ref.trace_to_jsonl(old))
    assert list(trace_to_jsonl(new)) == lines
    written = write_jsonl_trace(new, tmp_path / "new.jsonl")
    assert written.read_bytes() == "".join(f"{line}\n" for line in lines).encode()


def _assert_same_tables(new, old, metrics):
    """The sweep's integer-ns tables against the float-summing reference."""
    got, want = node_breakdown(new, metrics), ref.node_breakdown(old, T=metrics.T)
    assert [r["node"] for r in got] == [r["node"] for r in want]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-12)
    # cpu spans last whole nanoseconds; a phase span's duration is a
    # difference of event times, so the sweep rounds it by up to 0.5 ns
    got, want = phase_totals(new), ref.phase_totals(old)
    assert got.keys() == want.keys()
    for step, w in want.items():
        assert got[step]["count"] == w["count"]
        assert got[step]["total"] == pytest.approx(
            w["total"], abs=w["count"] * 0.5e-9 + 1e-12)
        assert got[step]["mean"] == pytest.approx(w["mean"], abs=0.5e-9 + 1e-12)
    rec, want = reconcile(new, metrics), ref.timeline_reconcile(old, metrics)
    assert {k: rec[k] for k in want} == pytest.approx(want, abs=1e-12)
    assert rec["delta_s"] == 0.0
    assert phase_breakdown_text(new, metrics) == \
        ref.phase_breakdown_text(old, metrics)


@pytest.mark.parametrize("case", sorted(CASES))
def test_synthetic_case_equals_reference(case, tmp_path):
    max_records = 3 if case == "max-records" else None
    new, old = _pair(CASES[case], max_records)
    _assert_same(new, old, tmp_path, label='cell "q" ü')


def test_equal_extent_tie_goes_to_emission_order():
    new, _old = _pair(CASES["equal-extent-tie"])
    paths = {(r["cat"],) + r["path"] for r in attribution_rollup(new)}
    assert ("cpu", "first", "second", "inner") in paths
    assert ("phase", "second", "first") in paths


def test_straddler_starts_a_new_root():
    new, _old = _pair(CASES["straddler"])
    paths = {r["path"] for r in attribution_rollup(new)}
    assert {("a",), ("a", "a-child"), ("b",), ("b", "b-child"),
            ("b", "late-b-child"), ("outer",), ("outer", "inner"),
            ("straddler",), ("after",)} == paths


def test_negative_duration_counts_as_zero():
    new, old = _pair(CASES["negative-duration"])
    metrics = SimpleNamespace(T=10.0, Th=0.0, Ti=0.0, num_nodes=1)
    (row,) = node_breakdown(new, metrics)
    assert (row["task"], row["overhead"], row["idle"]) == (0.0, 5.0, 5.0)
    assert phase_totals(new)["backwards"] == \
        {"total": 0.0, "count": 1, "mean": 0.0}
    assert reconcile(new, metrics)["overhead_per_node"] == 5.0
    # the float-summing reference let the negative spans subtract
    (want,) = ref.node_breakdown(old, T=10.0)
    assert want["overhead"] == 4.5
    assert ref.phase_totals(old)["backwards"]["total"] == -1.0


def test_max_records_truncates_and_counts_the_rest():
    new, _old = _pair(CASES["max-records"], max_records=3)
    assert len(new) == 3 and new.dropped == 3


@pytest.mark.parametrize("strategy", ["RIPS", "RID", "gradient", "random"])
def test_real_traced_run_equals_reference(strategy, tmp_path):
    spec = workload("queens-10", scale="small")
    tracers = (Tracer(), ref.Tracer())
    runs = []
    for tracer in tracers:
        strat = strategy_factories(spec.kind, 8)[strategy]()
        runs.append(Session.from_parts(spec.build(8), strat,
                                       make_machine(8, seed=7),
                                       tracer=tracer).run())
    new, old = tracers
    assert len(new) > 0
    assert runs[0] == runs[1]
    _assert_same(new, old, tmp_path, label=f"queens-10/{strategy}")
    _assert_same_tables(new, old, runs[0])
