"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and raw JSONL.

The Chrome format (the ``chrome://tracing`` / https://ui.perfetto.dev
interchange JSON) maps one simulated *node* to one process (``pid``) and
one span *category* to one thread track (``tid``) inside it, so a
32-node run renders as 32 process groups each with cpu/task/phase/net
lanes.  Simulated seconds become microseconds, the unit the format
expects.

The JSONL stream is the raw record-per-line form (times in simulated
seconds) for ad-hoc processing with ``jq``/pandas.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from .tracer import TRACK_ORDER, Tracer

__all__ = [
    "trace_to_chrome",
    "trace_to_jsonl",
    "write_chrome_trace",
    "write_jsonl_trace",
]

_US = 1e6  # simulated seconds -> trace_event microseconds


def _track(cat: str) -> int:
    try:
        return TRACK_ORDER.index(cat)
    except ValueError:
        return len(TRACK_ORDER)


def trace_to_chrome(tracer: Tracer, label: str = "repro") -> dict:
    """Render a tracer into a Chrome ``trace_event`` JSON object."""
    events: list[dict] = []
    seen_tracks: set = set()
    for rec in tracer.records:
        ph = rec["ph"]
        node = rec["node"]
        cat = rec["cat"]
        tid = _track(cat)
        seen_tracks.add((node, tid, cat))
        ev = {
            "name": rec["name"],
            "cat": cat,
            "ph": ph,
            "ts": rec["t"] * _US,
            "pid": node,
            "tid": tid,
        }
        if ph == "X":
            ev["dur"] = rec["dur"] * _US
            if rec.get("args"):
                ev["args"] = rec["args"]
        elif ph == "i":
            ev["s"] = "t"  # thread-scoped instant
            if rec.get("args"):
                ev["args"] = rec["args"]
        elif ph == "C":
            ev["args"] = {rec["name"]: rec["value"]}
        events.append(ev)
    meta: list[dict] = []
    for node in sorted({n for n, _t, _c in seen_tracks}):
        meta.append(
            {"name": "process_name", "ph": "M", "pid": node, "tid": 0,
             "args": {"name": f"node {node}"}}
        )
    for node, tid, cat in sorted(seen_tracks):
        meta.append(
            {"name": "thread_name", "ph": "M", "pid": node, "tid": tid,
             "args": {"name": cat}}
        )
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": label,
            "clock": "simulated",
            "dropped_records": tracer.dropped,
        },
    }


def trace_to_jsonl(tracer: Tracer) -> Iterable[str]:
    """Yield one JSON line per raw record (times in simulated seconds)."""
    for rec in tracer.records:
        yield json.dumps(rec, separators=(",", ":"), default=repr)


def write_chrome_trace(
    tracer: Tracer, path: Union[str, Path], label: str = "repro"
) -> Path:
    """Write the Chrome JSON to ``path``; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(trace_to_chrome(tracer, label=label)) + "\n")
    return path


def write_jsonl_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write the raw JSONL stream to ``path``; returns the path written."""
    path = Path(path)
    with path.open("w") as fh:
        for line in trace_to_jsonl(tracer):
            fh.write(line + "\n")
    return path
