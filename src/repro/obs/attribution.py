"""The trace reader: fold tracer spans into tables.

The tracer records *flat* completed spans; this module recovers their
nesting (per ``(node, cat)`` track, by time containment — exactly the
structure Perfetto infers when it stacks Chrome ``X`` events) in one
sweep per track.  Every trace-derived table reads that sweep:

* :func:`attribution_rollup` — aggregate **self time** (span duration
  minus nested children) by folded stack path, the flamegraph table.
* :func:`subsystem_attribution` — the coarse per-subsystem split:
  kernel drain vs. strategy hooks vs. network vs. snapshot vs. service
  slice overhead.
* :func:`collapsed_stacks` — ``path;to;frame <self>`` text, one line per
  stack, directly consumable by ``flamegraph.pl`` and speedscope.
* :func:`node_breakdown` / :func:`phase_totals` /
  :func:`phase_breakdown_text` — what the paper's Table I aggregates
  hide: where each processor's time went, per node and per
  system-phase sub-step (the ``repro trace --report`` text).
* :func:`reconcile` — the audits: Σ self-times must equal Σ root
  durations *exactly*, and, given the run's
  :class:`~repro.balancers.base.RunMetrics`, the per-node task and
  overhead time of the ``cpu`` spans must match its ``T``/``Th``/``Ti``.

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

__all__ = [
    "attribution_rollup",
    "collapsed_stacks",
    "node_breakdown",
    "phase_breakdown_text",
    "phase_totals",
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
    ``(node, cat, root name, …, leaf name)`` to ``[self_ns, total_ns,
    count]`` summed over the spans at that path, where a span's self
    time is its duration minus its direct children's; ``root_ns`` sums
    the durations of the root spans on its own.
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
    for track, spans in tracks.items():
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
                path = track + (name,)
            agg = stacks.get(path)
            if agg is None:
                agg = stacks[path] = [dur, dur, 1]
            else:
                agg[0] += dur
                agg[1] += dur
                agg[2] += 1
            open_.append((end, path, agg))
    return stacks, root_ns


def _fold_nodes(stacks: dict) -> dict[tuple, list]:
    """The stacks summed over node: ``(cat, root, …, leaf)`` →
    ``[self_ns, total_ns, count]``."""
    folded: dict[tuple, list] = {}
    for path, (self_ns, total_ns, count) in stacks.items():
        agg = folded.get(path[1:])
        if agg is None:
            folded[path[1:]] = [self_ns, total_ns, count]
        else:
            agg[0] += self_ns
            agg[1] += total_ns
            agg[2] += count
    return folded


def _per_node(stacks: dict) -> dict[int, list[int]]:
    """``node → [task_ns, overhead_ns, tasks, gathers]``: the node's
    ``cpu`` span time split into the ``task`` cost category and the
    rest, its ``task`` span count and its ``gather`` phase count, over
    spans at any depth of its tracks."""
    acc: dict[int, list[int]] = {}
    for path, (_self_ns, total_ns, count) in stacks.items():
        cat, name = path[1], path[-1]
        if cat == "cpu":
            slot, value = (0 if name == "task" else 1), total_ns
        elif cat == "task":
            slot, value = 2, count
        elif cat == "phase" and name == "gather":
            slot, value = 3, count
        else:
            continue
        acc.setdefault(path[0], [0, 0, 0, 0])[slot] += value
    return acc


def attribution_rollup(tracer) -> list[dict]:
    """Fold the spans into per-stack-path aggregates.

    Returns rows ``{"cat", "path", "self_s", "total_s", "count"}``
    sorted by descending self time — the flamegraph table.  ``path`` is
    the tuple of span names from root to leaf; ``total_s`` counts a
    span's whole duration (so parents ≥ children), ``self_s`` only the
    un-nested remainder (so Σ self_s over all rows = Σ root durations).
    """
    rows = [
        {
            "cat": path[0],
            "path": path[1:],
            "self_s": self_ns / _NS,
            "total_s": total_ns / _NS,
            "count": count,
        }
        for path, (self_ns, total_ns, count)
        in _fold_nodes(_sweep(tracer)[0]).items()
    ]
    rows.sort(key=lambda r: (-r["self_s"], r["cat"], r["path"]))
    return rows


def subsystem_attribution(tracer) -> dict[str, float]:
    """Coarse self-time split by subsystem (kernel / strategy / network /
    snapshot / service / other), in simulated seconds."""
    totals_ns: dict[str, int] = {}
    for path, (self_ns, _total_ns, _count) in _sweep(tracer)[0].items():
        bucket = SUBSYSTEM_OF_CAT.get(path[1], "other")
        totals_ns[bucket] = totals_ns.get(bucket, 0) + self_ns
    return {k: v / _NS for k, v in sorted(totals_ns.items())}


def collapsed_stacks(tracer, unit_ns: int = 1) -> str:
    """Collapsed-stack text (``cat;frame;child <self-weight>`` per line)
    for ``flamegraph.pl`` / speedscope.  Weights are integer nanoseconds
    of self time divided by ``unit_ns`` (leave at 1 for full precision).
    """
    lines = []
    for path, (self_ns, _total_ns, _count) in sorted(
            _fold_nodes(_sweep(tracer)[0]).items()):
        weight = self_ns // unit_ns
        if weight > 0:
            lines.append(f"{';'.join(path)} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def _node_rows(per_node: dict, metrics) -> list[dict]:
    T = metrics.T
    rows = []
    for node in sorted(per_node.keys() | range(metrics.num_nodes)):
        task_ns, over_ns, tasks, gathers = per_node.get(node, (0, 0, 0, 0))
        task, over = task_ns / _NS, over_ns / _NS
        rows.append({
            "node": node,
            "task": task,
            "overhead": over,
            "idle": max(0.0, T - task - over),
            "tasks": tasks,
            "phases": gathers,
        })
    return rows


def node_breakdown(tracer, metrics) -> list[dict]:
    """Per-node accounting rows from the ``cpu`` spans.

    One row per rank in ``range(metrics.num_nodes)`` plus any other rank
    the trace names, so a rank that never ran shows task 0, overhead 0
    and idle ``T``.  Each row: ``{"node", "task", "overhead", "idle",
    "tasks", "phases"}`` with times in simulated seconds: ``task`` and
    ``overhead`` split the node's ``cpu`` spans by cost category,
    ``idle`` is the rest of the run's makespan ``metrics.T``, ``tasks``
    counts its ``task`` spans and ``phases`` its ``gather`` steps.
    """
    return _node_rows(_per_node(_sweep(tracer)[0]), metrics)


def _phase_totals(stacks: dict) -> dict[str, dict[str, float]]:
    acc: dict[str, list[int]] = {}
    for path, (_self_ns, total_ns, count) in stacks.items():
        if path[1] == "phase":
            agg = acc.setdefault(path[-1].split(":")[0], [0, 0])
            agg[0] += total_ns
            agg[1] += count
    return {
        step: {"total": total_ns / _NS, "count": count,
               "mean": total_ns / _NS / count}
        for step, (total_ns, count) in acc.items()
    }


def phase_totals(tracer) -> dict[str, dict[str, float]]:
    """Aggregate the ``phase`` spans: per sub-step (init/gather/plan/
    transfer/wave-barrier, ``wave-barrier:3`` counting as
    ``wave-barrier``), total span-seconds across nodes, count, and mean
    duration."""
    return _phase_totals(_sweep(tracer)[0])


def _versus_metrics(per_node: dict, metrics) -> dict[str, float]:
    n = metrics.num_nodes
    task_per_node = sum(p[0] for p in per_node.values()) / _NS / n
    over_per_node = sum(p[1] for p in per_node.values()) / _NS / n
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


def reconcile(tracer, metrics=None) -> dict:
    """Audit the trace against two conservation laws.

    The rollup conserves time: Σ self over every stack path must equal
    Σ duration over root spans, exactly (integer ns).  That part returns
    ``{"root_s", "self_s", "delta_s", "ok"}`` where ``delta_s`` is 0.0
    on any trace (the telescoping identity), making it a cheap invariant
    for the tests and for the benchmark's traced cells alike.

    Given the run's ``metrics``, the result also compares the ``cpu``
    spans' per-node averages with its Table-I split: ``task_per_node``,
    ``overhead_per_node``, ``idle_per_node``, ``metrics_task_per_node``
    (``T − Th − Ti``) and the absolute deltas ``delta_task``,
    ``delta_overhead`` and ``delta_idle``, which are ~0 because the
    tracer observes the same CPU segments the machine's accounting sums.
    """
    stacks, root_ns = _sweep(tracer)
    self_ns = sum(agg[0] for agg in stacks.values())
    rec = {
        "root_s": root_ns / _NS,
        "self_s": self_ns / _NS,
        "delta_s": (root_ns - self_ns) / _NS,
        "ok": root_ns == self_ns,
    }
    if metrics is not None:
        rec.update(_versus_metrics(_per_node(stacks), metrics))
    return rec


def phase_breakdown_text(tracer, metrics) -> str:
    """The ``repro trace --report`` text: per-node time accounting, the
    system-phase sub-step table, and the reconciliation against the
    run's Table-I numbers — all from one sweep."""
    from ..metrics.report import format_table

    stacks, _root_ns = _sweep(tracer)
    per_node = _per_node(stacks)
    parts = [format_table(
        _node_rows(per_node, metrics),
        ["node", "task", "overhead", "idle", "tasks", "phases"],
        title="per-node time (sim seconds)",
    )]
    totals = _phase_totals(stacks)
    if totals:
        prows = [
            {"step": name, "count": agg["count"],
             "total": agg["total"], "mean": agg["mean"]}
            for name, agg in sorted(totals.items())
        ]
        parts.append(format_table(
            prows, ["step", "count", "total", "mean"],
            title="system-phase sub-steps",
        ))
    rec = _versus_metrics(per_node, metrics)
    parts.append(
        "reconciliation vs RunMetrics: "
        f"task/n {rec['task_per_node']:.6f} (metrics {rec['metrics_task_per_node']:.6f})  "
        f"Th {rec['overhead_per_node']:.6f} (metrics {metrics.Th:.6f})  "
        f"Ti {rec['idle_per_node']:.6f} (metrics {metrics.Ti:.6f})"
    )
    return "\n\n".join(parts)
