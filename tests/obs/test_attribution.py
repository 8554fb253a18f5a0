"""Span-tree attribution: rollup conservation, nesting, collapsed stacks.

The telescoping identity is the whole point — Σ self time over every
stack path must equal Σ root-span duration *exactly* (integer ns), on a
synthetic trace and on a real traced run alike.  A rollup that leaks or
double-counts time is worse than none.
"""

from __future__ import annotations

import pytest

from repro.obs import Tracer
from repro.obs.attribution import (
    attribution_rollup,
    collapsed_stacks,
    reconcile,
    subsystem_attribution,
)
from repro.runner import RunRequest, execute_request


def _synthetic_tracer() -> Tracer:
    """One node, one category: a root span [0, 10] containing a child
    [2, 5] which contains a grandchild [3, 4], plus a sibling root."""
    tr = Tracer()
    tr.complete(0, "cpu", "root", 0.0, 10.0)
    tr.complete(0, "cpu", "child", 2.0, 3.0)
    tr.complete(0, "cpu", "grand", 3.0, 1.0)
    tr.complete(1, "cpu", "other-root", 0.0, 4.0)
    return tr


def test_forest_nesting_by_containment():
    rows = attribution_rollup(_synthetic_tracer())
    assert {r["path"] for r in rows} == {
        ("root",), ("root", "child"), ("root", "child", "grand"),
        ("other-root",)}
    # self time telescopes: 10 - 3 = 7s on the root, 3 - 1 = 2s on child
    weights = dict(line.rsplit(" ", 1) for line in
                   collapsed_stacks(_synthetic_tracer()).splitlines())
    assert weights["cpu;root"] == "7000000000"
    assert weights["cpu;root;child"] == "2000000000"


def test_rollup_sums_equal_span_sums():
    tr = _synthetic_tracer()
    rows = attribution_rollup(tr)
    total_self = sum(r["self_s"] for r in rows)
    root_total = 10.0 + 4.0
    assert total_self == pytest.approx(root_total)
    by_path = {r["path"]: r for r in rows}
    assert by_path[("root",)]["self_s"] == pytest.approx(7.0)
    assert by_path[("root",)]["total_s"] == pytest.approx(10.0)
    assert by_path[("root", "child")]["self_s"] == pytest.approx(2.0)
    assert by_path[("root", "child", "grand")]["self_s"] == pytest.approx(1.0)
    # sorted by descending self time
    assert rows[0]["self_s"] == max(r["self_s"] for r in rows)


def test_reconcile_is_exact_on_synthetic_trace():
    rec = reconcile(_synthetic_tracer())
    assert rec["ok"]
    assert rec["delta_s"] == 0.0
    assert rec["root_s"] == pytest.approx(14.0)


def test_collapsed_stacks_weights_conserve_time():
    text = collapsed_stacks(_synthetic_tracer())
    lines = dict(
        (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
        for line in text.strip().splitlines()
    )
    assert lines["cpu;root;child;grand"] == 1_000_000_000
    assert sum(lines.values()) == 14_000_000_000


def test_rollup_reconciles_on_real_traced_run():
    req = RunRequest(workload="queens-10", strategy="RIPS", num_nodes=8,
                     seed=1, scale="small", trace=True)
    metrics = execute_request(req)
    tracer = Tracer.from_records(metrics.extra["trace_records"])
    rec = reconcile(tracer)
    assert rec["ok"] and rec["delta_s"] == 0.0
    assert rec["root_s"] > 0
    subs = subsystem_attribution(tracer)
    assert subs  # a real run spends time somewhere
    assert sum(subs.values()) == pytest.approx(rec["root_s"])
    assert "kernel" in subs  # cpu/task/sim spans always exist
    rows = attribution_rollup(tracer)
    assert sum(r["self_s"] for r in rows) == pytest.approx(rec["root_s"])


def test_empty_tracer_reconciles_trivially():
    rec = reconcile(Tracer())
    assert rec["ok"] and rec["root_s"] == 0.0
    assert collapsed_stacks(Tracer()) == ""
    assert attribution_rollup(Tracer()) == []
