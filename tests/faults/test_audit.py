"""Task-conservation audit: every violation class, from synthetic evidence.

These tests fabricate tracer records directly, so each branch of the
audit is pinned independently of the simulator: duplicated, missing,
lost-but-executed, unknown, and unjustified-lost are violations;
crash-justified loss is not.
"""

from repro.faults import audit_conservation, executed_task_counts
from repro.tasks.trace import TraceTask, WorkloadTrace


def _trace(n: int) -> WorkloadTrace:
    return WorkloadTrace(
        "synthetic", [TraceTask(id=i, work=1.0) for i in range(n)], 1e-6
    )


def _exec_records(*task_ids: int) -> list[tuple]:
    """One completed ``task`` span per listed id (repeats allowed)."""
    return [("X", 0, "task", f"task:{tid}", 0.0, 1.0, None) for tid in task_ids]


def test_executed_task_counts_ignores_non_task_records():
    records = _exec_records(0, 1, 1) + [
        ("X", 0, "cpu", "task:9", 0.0, 1.0, None),  # wrong category
        ("B", 0, "task", "task:9", 0.0, None, None),  # open span, not complete
        ("X", 0, "task", "phase", 0.0, 1.0, None),  # not a task:<id> span
    ]
    assert executed_task_counts(records) == {0: 1, 1: 2}


def test_clean_run_passes():
    report = audit_conservation(_trace(3), _exec_records(0, 1, 2))
    assert report.ok
    assert report.executed_once == 3
    assert "conservation OK: 3/3" in report.summary()


def test_duplicated_execution_is_a_violation():
    report = audit_conservation(_trace(2), _exec_records(0, 1, 1))
    assert not report.ok
    assert report.duplicated == [1]
    assert "duplicated" in report.summary()


def test_missing_task_is_a_violation():
    report = audit_conservation(_trace(3), _exec_records(0, 2))
    assert not report.ok
    assert report.missing == [1]


def test_unknown_task_id_is_a_violation():
    report = audit_conservation(_trace(2), _exec_records(0, 1, 7))
    assert not report.ok
    assert report.unknown == [7]


def test_loss_without_a_crash_is_a_violation():
    report = audit_conservation(
        _trace(2), _exec_records(0), lost_task_ids=[1], crashed_nodes=[]
    )
    assert not report.ok
    assert report.unjustified_lost == [1]


def test_crash_justified_loss_passes():
    report = audit_conservation(
        _trace(3), _exec_records(0, 2), lost_task_ids=[1], crashed_nodes=[5]
    )
    assert report.ok
    assert report.justified_lost == [1]
    assert report.crashed_nodes == [5]
    assert "lost to crashes" in report.summary()


def test_lost_but_executed_is_a_violation():
    report = audit_conservation(
        _trace(2), _exec_records(0, 1), lost_task_ids=[1], crashed_nodes=[5]
    )
    assert not report.ok
    assert report.lost_but_executed == [1]
