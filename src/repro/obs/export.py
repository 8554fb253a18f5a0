"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and raw JSONL.

The Chrome format (the ``chrome://tracing`` / https://ui.perfetto.dev
interchange JSON) maps one simulated *node* to one process (``pid``) and
one span *category* to one thread track (``tid``) inside it, so a
32-node run renders as 32 process groups each with cpu/task/phase/net
lanes.  Simulated seconds become microseconds, the unit the format
expects.  :func:`write_chrome_trace` streams each event's JSON text to
the file as it goes, in exactly the bytes ``json.dumps`` gives for the
document ``{"traceEvents": [...], "displayTimeUnit": "ms",
"otherData": {...}}`` (simulated times are finite, so ``float.__repr__``
spells every timestamp the way ``json`` does).

The JSONL stream is the raw record-per-line form (times in simulated
seconds) for ad-hoc processing with ``jq``/pandas.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from pathlib import Path
from typing import Iterable, Iterator, Union

from .tracer import TRACK_ORDER, Tracer

__all__ = [
    "trace_to_jsonl",
    "write_chrome_trace",
    "write_jsonl_trace",
]

_US = 1e6  # simulated seconds -> trace_event microseconds

_float = float.__repr__
_json = json.JSONEncoder(check_circular=False).encode
_jsonl = json.JSONEncoder(separators=(",", ":"), default=repr).encode


def _track(cat: str) -> int:
    try:
        return TRACK_ORDER.index(cat)
    except ValueError:
        return len(TRACK_ORDER)


def _chrome_events(records, cats: dict) -> Iterator[str]:
    """Each record's ``trace_event`` JSON text, in emission order, each
    preceded by the ``", "`` that separates it from the one before.
    ``cats`` maps a category to its encoded name and ``tid``."""
    for ph, node, cat, name, t, x, args in records:
        cat_s, tid = cats[cat]
        head = (f', {{"name": {_str(name)}, "cat": {cat_s}, "ph": "{ph}", '
                f'"ts": {_float(t * _US)}, "pid": {node}, "tid": {tid}')
        if ph == "X":
            tail = f', "dur": {_float(x * _US)}'
        elif ph == "i":
            tail = ', "s": "t"'  # thread-scoped instant
        else:  # "C": the sample is the one arg
            yield f'{head}, "args": {{{_str(name)}: {_json(x)}}}}}'
            continue
        if args:
            yield f'{head}{tail}, "args": {_json(args)}}}'
        else:
            yield f"{head}{tail}}}"


def write_chrome_trace(
    tracer: Tracer, path: Union[str, Path], label: str = "repro"
) -> Path:
    """Write the Chrome JSON to ``path``; returns the path written.

    Metadata events (one ``process_name`` per node, one ``thread_name``
    per track) come first, then one event per record in emission order.
    """
    path = Path(path)
    records = tracer.records
    tracks = {(r[1], r[2]) for r in records}  # (node, cat)
    cats = {cat: (_str(cat), _track(cat)) for _node, cat in tracks}
    meta = [
        f'{{"name": "process_name", "ph": "M", "pid": {node}, "tid": 0, '
        f'"args": {{"name": "node {node}"}}}}'
        for node in sorted({node for node, _cat in tracks})
    ] + [
        f'{{"name": "thread_name", "ph": "M", "pid": {node}, "tid": {tid}, '
        f'"args": {{"name": {cats[cat][0]}}}}}'
        for node, tid, cat in sorted(
            (node, cats[cat][1], cat) for node, cat in tracks)
    ]
    with path.open("w") as fh:
        # every record opens a track, so there is no event without meta
        fh.write('{"traceEvents": [' + ", ".join(meta))
        fh.writelines(_chrome_events(records, cats))
        fh.write('], "displayTimeUnit": "ms", "otherData": '
                 + _json({"source": label, "clock": "simulated",
                          "dropped_records": tracer.dropped})
                 + "}\n")
    return path


def trace_to_jsonl(tracer: Tracer) -> Iterable[str]:
    """Yield one JSON line per raw record (times in simulated seconds).

    Each line is the record as an object keyed ``ph, node, cat, name, t``
    and then ``dur, args`` (span), ``args`` (instant) or ``value``
    (counter).
    """
    for ph, node, cat, name, t, x, args in tracer.records:
        if ph == "X":
            rec = {"ph": ph, "node": node, "cat": cat, "name": name,
                   "t": t, "dur": x, "args": args}
        elif ph == "C":
            rec = {"ph": ph, "node": node, "cat": cat, "name": name,
                   "t": t, "value": x}
        else:
            rec = {"ph": ph, "node": node, "cat": cat, "name": name,
                   "t": t, "args": args}
        yield _jsonl(rec)


def write_jsonl_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write the raw JSONL stream to ``path``; returns the path written."""
    path = Path(path)
    with path.open("w") as fh:
        for line in trace_to_jsonl(tracer):
            fh.write(line + "\n")
    return path
