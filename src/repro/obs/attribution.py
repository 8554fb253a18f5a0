"""Per-subsystem time attribution: fold tracer spans into tables.

The tracer records *flat* completed spans; this module recovers their
nesting (per ``(node, cat)`` track, by time containment — exactly the
structure Perfetto infers when it stacks Chrome ``X`` events) in one
sweep per track and folds it into flamegraph-style rollups:

* :func:`attribution_rollup` — aggregate **self time** (span duration
  minus nested children) by folded stack path, the flamegraph table.
* :func:`subsystem_attribution` — the coarse per-subsystem split the
  loadtest report carries: kernel drain vs. strategy hooks vs. network
  vs. snapshot vs. service slice overhead.
* :func:`collapsed_stacks` — ``path;to;frame <self>`` text, one line per
  stack, directly consumable by ``flamegraph.pl`` and speedscope.
* :func:`reconcile` — the audit: Σ self-times must equal Σ root
  durations *exactly*.

The sweep
---------
Each track's spans are sorted by ``(start, -dur)`` — a parent before the
children it contains even when they share a start time, and two spans
of equal extent in emission order, so the earlier-emitted one is the
parent.  A stack then assigns each span to the deepest still-open span
that contains it; a span that straddles its predecessor's end without
nesting in it starts a new root and clears the stack.  The tracer's
producers emit properly nested spans per ``(node, cat)``, so in
practice this is the Chrome semantics.

Exactness
---------
Self time telescopes: ``self(f) = dur(f) − Σ dur(children(f))``, so the
sum of self over a tree is identically the root's duration.  Float
addition does not associate, though, so the module does all arithmetic
in **integer nanoseconds** (simulated time quantized at 1 ns; a negative
duration counts as 0) and converts back at the edge; :func:`reconcile`
then asserts a 0.0 delta, not an epsilon.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "attribution_rollup",
    "collapsed_stacks",
    "format_attribution",
    "reconcile",
    "subsystem_attribution",
    "SUBSYSTEM_OF_CAT",
]

#: 1 ns quantization of simulated seconds — fine enough that no two
#: distinct event timestamps collide, coarse enough to stay in int64.
_NS = 1_000_000_000

#: Tracer category → subsystem bucket for the coarse attribution table.
#: ``cpu`` spans are the kernel's busy accounting; ``phase``/``mwa`` are
#: the scheduling strategy's own protocol machinery.
SUBSYSTEM_OF_CAT = {
    "cpu": "kernel",
    "task": "kernel",
    "sim": "kernel",
    "phase": "strategy",
    "mwa": "strategy",
    "net": "network",
    "fault": "network",
    "snapshot": "snapshot",
    "service": "service",
}


def _sweep(tracer) -> tuple[dict[tuple, list], int]:
    """The containment sweep over every ``(node, cat)`` track.

    Returns ``(stacks, root_ns)``: ``stacks`` maps each stack path
    ``(cat, root name, …, leaf name)`` to ``[self_ns, total_ns, count]``
    summed over the spans at that path, where a span's self time is its
    duration minus its direct children's; ``root_ns`` sums the durations
    of the root spans on its own.
    """
    tracks: dict[tuple, list] = {}
    for seq, (ph, node, cat, name, t, dur, _args) in enumerate(tracer.records):
        if ph == "X":
            dur_ns = round(dur * _NS)
            key = (node, cat)
            spans = tracks.get(key)
            if spans is None:
                spans = tracks[key] = []
            # sorts by (start, -dur), then emission order; never by name
            spans.append((round(t * _NS), -dur_ns if dur_ns > 0 else 0, seq, name))

    stacks: dict[tuple, list] = {}
    root_ns = 0
    for (_node, cat), spans in tracks.items():
        spans.sort()
        # open spans, innermost last: (end_ns, path, aggregate)
        open_: list[tuple] = []
        for start, neg_dur, _seq, name in spans:
            dur = -neg_dur
            end = start + dur
            while open_ and start >= open_[-1][0]:
                open_.pop()
            if open_ and end <= open_[-1][0]:
                _end, parent_path, parent = open_[-1]
                parent[0] -= dur
                path = parent_path + (name,)
            else:
                open_.clear()
                root_ns += dur
                path = (cat, name)
            agg = stacks.get(path)
            if agg is None:
                agg = stacks[path] = [dur, dur, 1]
            else:
                agg[0] += dur
                agg[1] += dur
                agg[2] += 1
            open_.append((end, path, agg))
    return stacks, root_ns


def attribution_rollup(tracer) -> list[dict]:
    """Fold the spans into per-stack-path aggregates.

    Returns rows ``{"cat", "path", "self_s", "total_s", "count"}``
    sorted by descending self time — the flamegraph table.  ``path`` is
    the tuple of span names from root to leaf; ``total_s`` counts a
    span's whole duration (so parents ≥ children), ``self_s`` only the
    un-nested remainder (so Σ self_s over all rows = Σ root durations).
    """
    stacks, _root_ns = _sweep(tracer)
    rows = [
        {
            "cat": path[0],
            "path": path[1:],
            "self_s": self_ns / _NS,
            "total_s": total_ns / _NS,
            "count": count,
        }
        for path, (self_ns, total_ns, count) in stacks.items()
    ]
    rows.sort(key=lambda r: (-r["self_s"], r["cat"], r["path"]))
    return rows


def subsystem_attribution(tracer) -> dict[str, float]:
    """Coarse self-time split by subsystem (kernel / strategy / network /
    snapshot / service / other), in simulated seconds — the shape the
    loadtest report and ``trace --attribution`` table carry."""
    totals_ns: dict[str, int] = {}
    for path, (self_ns, _total_ns, _count) in _sweep(tracer)[0].items():
        bucket = SUBSYSTEM_OF_CAT.get(path[0], "other")
        totals_ns[bucket] = totals_ns.get(bucket, 0) + self_ns
    return {k: v / _NS for k, v in sorted(totals_ns.items())}


def collapsed_stacks(tracer, unit_ns: int = 1) -> str:
    """Collapsed-stack text (``cat;frame;child <self-weight>`` per line)
    for ``flamegraph.pl`` / speedscope.  Weights are integer nanoseconds
    of self time divided by ``unit_ns`` (leave at 1 for full precision).
    """
    lines = []
    for path, (self_ns, _total_ns, _count) in sorted(_sweep(tracer)[0].items()):
        weight = self_ns // unit_ns
        if weight > 0:
            lines.append(f"{';'.join(path)} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def reconcile(tracer) -> dict:
    """Audit that the rollup conserves time: Σ self over every stack path
    must equal Σ duration over root spans, exactly (integer ns).

    Returns ``{"root_s", "self_s", "delta_s", "ok"}`` where ``delta_s``
    is 0.0 on any trace (the telescoping identity), making it a cheap
    invariant for tests and the loadtest report alike.
    """
    stacks, root_ns = _sweep(tracer)
    self_ns = sum(agg[0] for agg in stacks.values())
    return {
        "root_s": root_ns / _NS,
        "self_s": self_ns / _NS,
        "delta_s": (root_ns - self_ns) / _NS,
        "ok": root_ns == self_ns,
    }


def format_attribution(tracer, top: Optional[int] = 20) -> str:
    """The human-facing flamegraph table (used by ``repro trace``)."""
    from ..metrics.report import format_table

    rows = attribution_rollup(tracer)
    if top is not None:
        rows = rows[:top]
    table_rows = [
        {
            "stack": ";".join((r["cat"],) + r["path"]),
            "self (s)": f"{r['self_s']:.6f}",
            "total (s)": f"{r['total_s']:.6f}",
            "count": r["count"],
        }
        for r in rows
    ]
    subsystems = subsystem_attribution(tracer)
    footer = "  ".join(f"{k}={v:.6f}s" for k, v in subsystems.items())
    table = format_table(table_rows, title="time attribution (self-time rollup)")
    return f"{table}\n  by subsystem: {footer}\n" if table_rows else "(no spans)\n"
