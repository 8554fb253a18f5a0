"""Reference implementations for the trace consumers' equality tests.

This is the dict-record tracer, the span-forest attribution
(``build_forest`` + ``_walk``) and the dict-building Chrome renderer
(``trace_to_chrome`` + ``json.dumps``) that preceded the flat-tuple
records and the one-pass consumers in :mod:`repro.obs`, copied
verbatim (less the tracer methods the tests never call).  The last
section is the float-summing ``repro.metrics.timeline`` module that
read ``Tracer.spans()`` and ``Tracer.cpu_seconds()`` before the node
table, the phase table and the T/Th/Ti check moved onto the sweep in
:mod:`repro.obs.attribution`, also verbatim, less the unused
``timeline_text`` and with its ``reconcile`` renamed
``timeline_reconcile`` beside the attribution one.
``tests/obs/test_reference_equality.py`` drives this module
and the real one with the same emissions and asserts that every
attribution result and every exported byte is equal.  Nothing outside
the tests imports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.metrics.report import format_table
from repro.obs.tracer import TRACK_ORDER


@dataclass(frozen=True)
class Span:
    """One completed span, in simulated seconds (report-friendly view)."""

    node: int
    cat: str
    name: str
    start: float
    dur: float
    args: Optional[dict] = None

    @property
    def end(self) -> float:
        return self.start + self.dur


class Tracer:
    """Collects trace records; attach via :meth:`Machine.attach_tracer`."""

    enabled = True

    def __init__(self, max_records: Optional[int] = None) -> None:
        #: raw record dicts, in emission order
        self.records: list[dict] = []
        #: open begin() stacks: (node, cat, name) -> [(start, args), ...]
        self._open: dict[tuple[int, str, str], list] = {}
        #: optional backstop against runaway traces; None = unbounded
        self.max_records = max_records
        #: records discarded after hitting ``max_records``
        self.dropped = 0

    # ------------------------------------------------------------------
    # emission API
    # ------------------------------------------------------------------
    def _emit(self, rec: dict) -> None:
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(rec)

    def complete(
        self,
        node: int,
        cat: str,
        name: str,
        start: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        """Emit a finished span (start and duration already known)."""
        self._emit(
            {"ph": "X", "node": node, "cat": cat, "name": name,
             "t": start, "dur": dur, "args": args}
        )

    def begin(
        self,
        node: int,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Open a span; close it later with a matching :meth:`end`."""
        self._open.setdefault((node, cat, name), []).append((t, args))

    def end(
        self,
        node: int,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Close the most recent matching :meth:`begin` and emit the span.

        An unmatched ``end`` is ignored: protocol code may observe a
        terminal message (e.g. ``done``) for a phase it never entered.
        """
        stack = self._open.get((node, cat, name))
        if not stack:
            return
        start, begin_args = stack.pop()
        if not stack:
            del self._open[(node, cat, name)]
        merged = begin_args
        if args:
            merged = {**(begin_args or {}), **args}
        self.complete(node, cat, name, start, t - start, merged)

    def instant(
        self,
        node: int,
        cat: str,
        name: str,
        t: float,
        args: Optional[dict] = None,
    ) -> None:
        """Emit a zero-duration marker."""
        self._emit(
            {"ph": "i", "node": node, "cat": cat, "name": name,
             "t": t, "args": args}
        )

    def counter(self, node: int, cat: str, name: str, t: float, value: float) -> None:
        """Emit one sample of a time series."""
        self._emit(
            {"ph": "C", "node": node, "cat": cat, "name": name,
             "t": t, "value": value}
        )

    # ------------------------------------------------------------------
    # consumption API
    # ------------------------------------------------------------------
    def spans(self, cat: Optional[str] = None) -> Iterator[Span]:
        """Iterate completed spans, optionally restricted to one category."""
        for rec in self.records:
            if rec["ph"] != "X":
                continue
            if cat is not None and rec["cat"] != cat:
                continue
            yield Span(rec["node"], rec["cat"], rec["name"], rec["t"],
                       rec["dur"], rec.get("args"))

    def cpu_seconds(self) -> dict[int, dict[str, float]]:
        """Per-node CPU seconds by cost category, summed from ``cpu`` spans."""
        out: dict[int, dict[str, float]] = {}
        for s in self.spans("cpu"):
            per = out.setdefault(s.node, {})
            per[s.name] = per.get(s.name, 0.0) + s.dur
        return out


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


def _ns(t: float) -> int:
    return round(t * _NS)


@dataclass
class Frame:
    """One span re-nested into its track's containment tree."""

    node: int
    cat: str
    name: str
    start_ns: int
    dur_ns: int
    children: list = field(default_factory=list)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - sum(c.dur_ns for c in self.children)


def build_forest(tracer) -> list[Frame]:
    """Re-nest completed spans into containment trees, one forest entry
    per root span, grouped per ``(node, cat)`` track.

    Sort key ``(start, -dur)`` puts a parent before the children it
    contains even when they share a start time; a stack then assigns
    each span to the deepest still-open frame that contains it.
    """
    tracks: dict[tuple, list[Frame]] = {}
    for s in tracer.spans():
        tracks.setdefault((s.node, s.cat), []).append(
            Frame(s.node, s.cat, s.name, _ns(s.start), max(_ns(s.dur), 0)))

    roots: list[Frame] = []
    for frames in tracks.values():
        frames.sort(key=lambda f: (f.start_ns, -f.dur_ns))
        stack: list[Frame] = []
        for f in frames:
            while stack and f.start_ns >= stack[-1].end_ns:
                stack.pop()
            if stack and f.end_ns <= stack[-1].end_ns:
                stack[-1].children.append(f)
            else:
                # sibling (or straddler — treated as a new root)
                stack.clear()
                roots.append(f)
            stack.append(f)
    roots.sort(key=lambda f: (f.node, f.cat, f.start_ns))
    return roots


def _walk(frame: Frame, prefix: tuple, out: dict) -> None:
    path = prefix + (frame.name,)
    key = (frame.cat, path)
    agg = out.get(key)
    if agg is None:
        agg = out[key] = {"self_ns": 0, "total_ns": 0, "count": 0}
    agg["self_ns"] += frame.self_ns
    agg["total_ns"] += frame.dur_ns
    agg["count"] += 1
    for child in frame.children:
        _walk(child, path, out)


def attribution_rollup(tracer) -> list[dict]:
    """Fold the span forest into per-stack-path aggregates.

    Returns rows ``{"cat", "path", "self_s", "total_s", "count"}``
    sorted by descending self time — the flamegraph table.  ``path`` is
    the tuple of frame names from root to leaf; ``total_s`` counts a
    frame's whole duration (so parents ≥ children), ``self_s`` only the
    un-nested remainder (so Σ self_s over all rows = Σ root durations).
    """
    agg: dict[tuple, dict] = {}
    for root in build_forest(tracer):
        _walk(root, (), agg)
    rows = [
        {
            "cat": cat,
            "path": path,
            "self_s": a["self_ns"] / _NS,
            "total_s": a["total_ns"] / _NS,
            "count": a["count"],
        }
        for (cat, path), a in agg.items()
    ]
    rows.sort(key=lambda r: (-r["self_s"], r["cat"], r["path"]))
    return rows


def subsystem_attribution(tracer) -> dict[str, float]:
    """Coarse self-time split by subsystem (kernel / strategy / network /
    snapshot / service / other), in simulated seconds — the shape the
    loadtest report and ``trace --attribution`` table carry."""
    totals_ns: dict[str, int] = {}
    stack = list(build_forest(tracer))
    while stack:
        f = stack.pop()
        bucket = SUBSYSTEM_OF_CAT.get(f.cat, "other")
        totals_ns[bucket] = totals_ns.get(bucket, 0) + f.self_ns
        stack.extend(f.children)
    return {k: v / _NS for k, v in sorted(totals_ns.items())}


def collapsed_stacks(tracer, unit_ns: int = 1) -> str:
    """Collapsed-stack text (``cat;frame;child <self-weight>`` per line)
    for ``flamegraph.pl`` / speedscope.  Weights are integer nanoseconds
    of self time divided by ``unit_ns`` (leave at 1 for full precision).
    """
    agg: dict[tuple, dict] = {}
    for root in build_forest(tracer):
        _walk(root, (), agg)
    lines = []
    for (cat, path), a in sorted(agg.items()):
        weight = a["self_ns"] // unit_ns
        if weight <= 0:
            continue
        lines.append(";".join((cat,) + path) + f" {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def reconcile(tracer) -> dict:
    """Audit that the rollup conserves time: Σ self over every stack path
    must equal Σ duration over root spans, exactly (integer ns).

    Returns ``{"root_s", "self_s", "delta_s", "ok"}`` where ``delta_s``
    is 0.0 on any trace (the telescoping identity), making it a cheap
    invariant for tests and the loadtest report alike.
    """
    roots = build_forest(tracer)
    root_ns = sum(f.dur_ns for f in roots)
    agg: dict[tuple, dict] = {}
    for root in roots:
        _walk(root, (), agg)
    self_ns = sum(a["self_ns"] for a in agg.values())
    return {
        "root_s": root_ns / _NS,
        "self_s": self_ns / _NS,
        "delta_s": (root_ns - self_ns) / _NS,
        "ok": root_ns == self_ns,
    }


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


# ----------------------------------------------------------------------
# repro.metrics.timeline: the float-summing per-node and phase reports
# ----------------------------------------------------------------------
def node_breakdown(tracer: Tracer, T: Optional[float] = None) -> list[dict]:
    """Per-node accounting rows from the ``cpu`` spans.

    Each row: ``{"node", "task", "overhead", "idle", "tasks", "phases"}``
    with times in simulated seconds.  ``idle`` needs the makespan ``T``;
    when not given it defaults to the latest span end seen anywhere in
    the trace (exact for the node that finishes last, a lower bound of
    the true idle for the others only if the trace was truncated).
    """
    cpu = tracer.cpu_seconds()
    if T is None:
        T = max((s.end for s in tracer.spans()), default=0.0)
    tasks: dict[int, int] = {}
    for s in tracer.spans("task"):
        tasks[s.node] = tasks.get(s.node, 0) + 1
    phases: dict[int, int] = {}
    for s in tracer.spans("phase"):
        if s.name == "gather":
            phases[s.node] = phases.get(s.node, 0) + 1
    nodes = sorted(set(cpu) | set(tasks) | set(phases))
    rows = []
    for n in nodes:
        per = cpu.get(n, {})
        task = per.get("task", 0.0)
        over = sum(v for k, v in per.items() if k != "task")
        rows.append({
            "node": n,
            "task": task,
            "overhead": over,
            "idle": max(0.0, T - task - over),
            "tasks": tasks.get(n, 0),
            "phases": phases.get(n, 0),
        })
    return rows


def phase_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Aggregate the ``phase`` spans: per sub-step (init/gather/plan/
    transfer/wave-barrier), total span-seconds across nodes, count, and
    mean duration."""
    out: dict[str, dict[str, float]] = {}
    for s in tracer.spans("phase"):
        name = s.name.split(":")[0]  # wave-barrier:3 -> wave-barrier
        agg = out.setdefault(name, {"total": 0.0, "count": 0, "mean": 0.0})
        agg["total"] += s.dur
        agg["count"] += 1
    for agg in out.values():
        agg["mean"] = agg["total"] / agg["count"] if agg["count"] else 0.0
    return out


def phase_breakdown_text(tracer: Tracer, metrics=None) -> str:
    """The phase-breakdown report: per-node time accounting plus the
    system-phase sub-step table, and — when ``metrics`` is given — the
    reconciliation against the run's Table-I numbers."""
    T = metrics.T if metrics is not None else None
    rows = node_breakdown(tracer, T=T)
    parts = [format_table(
        rows, ["node", "task", "overhead", "idle", "tasks", "phases"],
        title="per-node time (sim seconds)",
    )]
    totals = phase_totals(tracer)
    if totals:
        prows = [
            {"step": name, "count": int(agg["count"]),
             "total": agg["total"], "mean": agg["mean"]}
            for name, agg in sorted(totals.items())
        ]
        parts.append(format_table(
            prows, ["step", "count", "total", "mean"],
            title="system-phase sub-steps",
        ))
    if metrics is not None:
        rec = timeline_reconcile(tracer, metrics)
        parts.append(
            "reconciliation vs RunMetrics: "
            f"task/n {rec['task_per_node']:.6f} (metrics {rec['metrics_task_per_node']:.6f})  "
            f"Th {rec['overhead_per_node']:.6f} (metrics {metrics.Th:.6f})  "
            f"Ti {rec['idle_per_node']:.6f} (metrics {metrics.Ti:.6f})"
        )
    return "\n\n".join(parts)


def timeline_reconcile(tracer: Tracer, metrics) -> dict[str, float]:
    """Compare trace-derived per-node averages against ``metrics``.

    Returns the trace-side values plus the absolute deltas; the test
    suite asserts the deltas are ~0 (the tracer observes the same CPU
    segments the machine's accounting sums)."""
    n = metrics.num_nodes
    cpu = tracer.cpu_seconds()
    task_total = sum(per.get("task", 0.0) for per in cpu.values())
    over_total = sum(v for per in cpu.values()
                     for k, v in per.items() if k != "task")
    task_per_node = task_total / n
    over_per_node = over_total / n
    idle_per_node = max(0.0, metrics.T - task_per_node - over_per_node)
    metrics_task_per_node = max(0.0, metrics.T - metrics.Th - metrics.Ti)
    return {
        "task_per_node": task_per_node,
        "overhead_per_node": over_per_node,
        "idle_per_node": idle_per_node,
        "metrics_task_per_node": metrics_task_per_node,
        "delta_task": abs(task_per_node - metrics_task_per_node),
        "delta_overhead": abs(over_per_node - metrics.Th),
        "delta_idle": abs(idle_per_node - metrics.Ti),
    }
