"""MetricsRegistry: instruments, percentile math, envelope discipline.

The registry is the one metrics dialect of the stack (executor counters
and histograms, service ``/v1/metrics``), so its contracts are pinned
hard here: exact small-sample percentiles, deterministic snapshots, and
the strict ``repro.report/1`` envelope every ``--json`` surface emits.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA,
    REPORT_SCHEMA,
    MetricsRegistry,
    make_report,
    percentile,
    validate_report,
)


# ----------------------------------------------------------------------
# percentile math
# ----------------------------------------------------------------------

def test_percentile_known_distribution():
    data = list(range(1, 101))  # 1..100
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 100.0
    assert percentile(data, 50) == 50.5  # linear interpolation midpoint
    # numpy's default 'linear' method on [1, 2, 3, 4]
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([1, 2, 3, 4], 25) == 1.75
    # order-independence
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


# ----------------------------------------------------------------------
# instruments + registry
# ----------------------------------------------------------------------

def test_counter_monotone():
    reg = MetricsRegistry()
    c = reg.counter("hits")
    c.inc()
    c.inc(3)
    assert reg.value("hits") == 4
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_wins():
    reg = MetricsRegistry()
    g = reg.gauge("inflight")
    g.set(3)
    g.set(1)
    g.add(0.5)
    assert reg.value("inflight") == 1.5


def test_histogram_exact_small_sample():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in (0.1, 0.2, 0.3, 0.4):
        h.observe(v)
    assert h.count == 4
    assert h.percentile(50) == pytest.approx(0.25)
    snap = h.snapshot_value()
    assert snap["count"] == 4
    assert snap["min"] == 0.1 and snap["max"] == 0.4
    assert "samples_dropped" not in snap


def test_histogram_sample_cap_keeps_aggregates_exact():
    from repro.obs.metrics import Histogram

    h = Histogram(max_samples=3)
    for v in range(10):
        h.observe(float(v))
    assert h.count == 10
    assert h.total == sum(range(10))
    assert h.max == 9.0
    assert h.snapshot_value()["samples_dropped"] == 7


def test_labels_address_distinct_instruments():
    reg = MetricsRegistry()
    a = reg.counter("cells", target="runner")
    b = reg.counter("cells", target="service")
    a.inc(2)
    b.inc(5)
    assert reg.value("cells", target="runner") == 2
    assert reg.value("cells", target="service") == 5
    assert reg.value("cells") is None  # unlabeled variant never created
    # repeated lookup returns the same object (handles are cacheable)
    assert reg.counter("cells", target="runner") is a


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_snapshot_deterministic_and_versioned():
    def build():
        reg = MetricsRegistry()
        reg.histogram("lat", target="b").observe(0.25)
        reg.counter("hits").inc(3)
        reg.gauge("depth", target="a").set(2)
        return reg

    s1, s2 = build().snapshot(), build().snapshot()
    assert s1["schema"] == METRICS_SCHEMA
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
    names = [e["name"] for e in s1["series"]]
    assert names == sorted(names)


# ----------------------------------------------------------------------
# the repro.report/1 envelope
# ----------------------------------------------------------------------

def test_make_report_roundtrip():
    reg = MetricsRegistry()
    reg.counter("hits").inc()
    doc = make_report("bench", {"events_per_sec": 1000}, registry=reg)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["metrics"]["schema"] == METRICS_SCHEMA
    # survives JSON serialization and strict validation
    assert validate_report(json.loads(json.dumps(doc)), kind="bench")


def test_validate_report_is_strict():
    good = make_report("x", {})
    with pytest.raises(ValueError, match="unknown report field"):
        validate_report({**good, "extra": 1})
    with pytest.raises(ValueError, match="schema"):
        validate_report({**good, "schema": "repro.report/999"})
    with pytest.raises(ValueError, match="kind"):
        validate_report(good, kind="y")
    with pytest.raises(ValueError, match="data"):
        validate_report({**good, "data": [1, 2]})
    with pytest.raises(ValueError, match="metrics"):
        validate_report({**good, "metrics": {"schema": "nope"}})
    with pytest.raises(ValueError, match="JSON object"):
        validate_report([1])
