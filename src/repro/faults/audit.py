"""Post-run task-conservation audit.

The invariant: **every generated task is executed exactly once, or is
provably lost to a declared fail-stop crash.**  Anything else — a task
executed twice (a rescue raced a late delivery), a task executed zero
times with no crash to blame (a protocol deadlock or a silently dropped
transfer), an executed task the workload never generated — is a bug in
the fault-tolerance machinery, and this audit is what the test suite
asserts for every strategy × fault-plan combination.

The audit is evidence-based: executions are read back from the PR-2
tracer records (the ``task`` category spans the driver emits as tasks
complete), not from the driver's own counters, so a driver that
double-counts or miscounts cannot vouch for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.tasks.trace import WorkloadTrace

__all__ = ["ConservationReport", "audit_conservation", "audit_session",
           "executed_task_counts"]


def executed_task_counts(records: Iterable[tuple]) -> dict[int, int]:
    """Execution count per task id, from raw tracer records.

    Counts the completed ``task`` spans named ``task:<id>`` that
    ``balancers.base.Worker`` emits once per executed task.
    """
    counts: dict[int, int] = {}
    for ph, _node, cat, name, _t, _dur, _args in records:
        if ph == "X" and cat == "task" and name.startswith("task:"):
            tid = int(name[5:])
            counts[tid] = counts.get(tid, 0) + 1
    return counts


@dataclass
class ConservationReport:
    """Outcome of one conservation audit (all task-id lists sorted)."""

    total_tasks: int
    executed_once: int
    #: executed more than once (count > 1): always a violation.
    duplicated: list[int] = field(default_factory=list)
    #: neither executed nor declared lost: always a violation.
    missing: list[int] = field(default_factory=list)
    #: executed although declared lost: always a violation.
    lost_but_executed: list[int] = field(default_factory=list)
    #: executed task ids the workload never generated: always a violation.
    unknown: list[int] = field(default_factory=list)
    #: declared lost with no crashed node to justify it: a violation.
    unjustified_lost: list[int] = field(default_factory=list)
    #: declared lost, justified by a fail-stop crash (not a violation).
    justified_lost: list[int] = field(default_factory=list)
    crashed_nodes: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.duplicated or self.missing or self.lost_but_executed
                    or self.unknown or self.unjustified_lost)

    def summary(self) -> str:
        if self.ok:
            lost = f", {len(self.justified_lost)} lost to crashes" \
                if self.justified_lost else ""
            return (f"conservation OK: {self.executed_once}/{self.total_tasks} "
                    f"tasks executed exactly once{lost}")
        parts = []
        for label in ("duplicated", "missing", "lost_but_executed",
                      "unknown", "unjustified_lost"):
            ids = getattr(self, label)
            if ids:
                parts.append(f"{label}={ids[:10]}" +
                             ("..." if len(ids) > 10 else ""))
        return "conservation VIOLATED: " + ", ".join(parts)


def audit_conservation(
    trace: WorkloadTrace,
    records: Iterable[tuple],
    lost_task_ids: Sequence[int] = (),
    crashed_nodes: Sequence[int] = (),
    counts: Optional[dict[int, int]] = None,
) -> ConservationReport:
    """Audit one run.

    Parameters
    ----------
    trace:
        The workload DAG that generated the tasks.
    records:
        Raw tracer records of the run (``metrics.extra["trace_records"]``).
    lost_task_ids:
        Tasks the driver declared lost (``metrics.extra["lost_task_ids"]``).
    crashed_nodes:
        Ranks that fail-stopped; an empty list makes any declared loss a
        violation.
    counts:
        Pre-extracted execution counts (skips re-scanning ``records``).
    """
    if counts is None:
        counts = executed_task_counts(records)
    lost = set(lost_task_ids)
    known = set(range(len(trace.tasks)))
    report = ConservationReport(
        total_tasks=len(trace.tasks),
        executed_once=sum(
            1 for tid, c in counts.items() if c == 1 and tid in known),
        crashed_nodes=sorted(crashed_nodes),
    )
    report.duplicated = sorted(t for t, c in counts.items() if c > 1)
    report.unknown = sorted(t for t in counts if t not in known)
    report.lost_but_executed = sorted(t for t in lost if t in counts)
    report.missing = sorted(known - counts.keys() - lost)
    if crashed_nodes:
        report.justified_lost = sorted(lost - counts.keys())
    else:
        report.unjustified_lost = sorted(lost)
    return report


def audit_session(session, metrics=None) -> ConservationReport:
    """Audit a completed traced :class:`~repro.session.Session` run.

    Convenience wrapper over :func:`audit_conservation` pulling the
    workload DAG, tracer records, loss declarations, and crash history
    straight from the session (the chaos harness's main loop).  Pass the
    :class:`RunMetrics` if you already hold them; otherwise they are
    recomputed from the driver.
    """
    if metrics is None:
        metrics = session.driver._metrics()
    extra = metrics.extra
    return audit_conservation(
        session.driver.trace,
        session.tracer.records,
        extra.get("lost_task_ids", ()),
        extra.get("crashed_nodes", ()),
    )
