"""Exporters: Chrome trace_event schema validity and JSONL stream."""

import json

from repro.obs import Tracer, trace_to_jsonl, write_chrome_trace


def _sample_tracer() -> Tracer:
    tr = Tracer()
    tr.complete(0, "cpu", "task", 0.0, 1.5e-3, {"tid": 7})
    tr.complete(1, "task", "task:7", 0.0, 1.5e-3)
    tr.begin(0, "phase", "gather", 0.0)
    tr.end(0, "phase", "gather", 2e-3)
    tr.instant(1, "net", "send:task", 1e-3, {"dest": 0})
    tr.counter(0, "sim", "events_processed", 1e-3, 256)
    return tr


def test_chrome_schema(tmp_path):
    out = write_chrome_trace(_sample_tracer(), tmp_path / "t.json", label="unit")
    doc = json.loads(out.read_text())
    # top-level object form of the trace_event format
    assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["source"] == "unit"
    events = doc["traceEvents"]
    phs = {e["ph"] for e in events}
    assert {"M", "X", "i", "C"} <= phs
    for e in events:
        assert "ph" in e and "pid" in e and "name" in e
        if e["ph"] == "M":
            continue
        assert isinstance(e["ts"], (int, float))
        assert "tid" in e and "cat" in e
        if e["ph"] == "X":
            assert e["dur"] >= 0
        if e["ph"] == "C":
            assert "args" in e
    # timestamps are microseconds: the 1.5ms task span becomes 1500us
    task = next(e for e in events if e["ph"] == "X" and e["cat"] == "cpu")
    assert abs(task["dur"] - 1500.0) < 1e-6
    # pid = simulated node id, announced by process_name metadata
    names = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    assert {e["pid"] for e in names} == {0, 1}


def test_chrome_write_and_reload(tmp_path):
    out = write_chrome_trace(_sample_tracer(), tmp_path / "t.json", label="x")
    doc = json.loads(out.read_text())
    assert doc["otherData"]["source"] == "x"
    assert len(doc["traceEvents"]) > 0


def test_jsonl_one_record_per_line():
    tr = _sample_tracer()
    lines = list(trace_to_jsonl(tr))
    assert len(lines) == len(tr.records)
    for line, (ph, node, cat, name, t, _x, _args) in zip(lines, tr.records):
        parsed = json.loads(line)
        assert parsed["ph"] == ph
        assert parsed["node"] == node
        assert (parsed["cat"], parsed["name"], parsed["t"]) == (cat, name, t)
