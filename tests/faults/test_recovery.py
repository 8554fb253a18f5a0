"""End-to-end fault recovery: every strategy survives every fault plan,
and the task-conservation invariant holds on the evidence.

This is the acceptance gate ISSUE-3 asks for: under a 1% drop plan and a
single-crash plan, every strategy (random, gradient, RID, RIPS) runs to
completion, and the audit proves each generated task executed exactly
once — or, for work pinned to a crashed node, was provably declared lost.
"""

import pytest

from repro.balancers import RandomAllocation
from repro.session import Session
from repro.experiments.common import STRATEGY_ORDER, workload
from repro.faults import FaultPlan, audit_conservation
from repro.obs import Tracer
from repro.runner import RunRequest, execute_request
from repro.tasks.trace import TraceTask, WorkloadTrace

PLANS = {
    "drop-1%": FaultPlan.lossy(0.01, seed=404),
    "crash-1": FaultPlan.fail_stop(((5, 0.01),), seed=404),
}


@pytest.mark.parametrize("strategy", STRATEGY_ORDER)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_every_strategy_conserves_tasks_under_faults(strategy, plan_name):
    plan = PLANS[plan_name]
    req = RunRequest("queens-10", strategy, num_nodes=16, seed=11,
                     scale="small", faults=plan, trace=True)
    m = execute_request(req)
    assert m.T > 0  # ran to completion, no deadlock
    trace = workload("queens-10", "small").build(16)
    report = audit_conservation(
        trace,
        m.extra["trace_records"],
        m.extra.get("lost_task_ids", ()),
        m.extra.get("crashed_nodes", ()),
    )
    assert report.ok, report.summary()
    # queens tasks are not pinned, so even the crash plan loses nothing
    assert m.extra["lost_tasks"] == 0
    assert report.executed_once == len(trace)
    if plan_name == "crash-1":
        assert m.extra["crashed_nodes"] == [5]
        assert m.extra["fault_plan"] == "crash x1"
    else:
        assert m.extra["fault_stats"]["drops"] > 0


def test_pinned_work_on_a_crashed_node_is_provably_lost():
    # Synthetic workload: two tasks pinned to rank 2 (plus an unpinned
    # dependent of one of them), padded with movable filler.  Rank 2
    # fail-stops before any pinned task can finish, so the driver must
    # declare exactly that pinned work (and its orphaned child) lost —
    # and the audit must accept the loss as crash-justified.
    tasks = [
        TraceTask(id=0, work=100.0),
        TraceTask(id=1, work=5000.0, pinned=2, children=(4,)),
        TraceTask(id=2, work=5000.0, pinned=2),
        TraceTask(id=3, work=100.0),
        TraceTask(id=4, work=50.0),  # spawned by the doomed task 1
    ]
    trace = WorkloadTrace("pinned-synthetic", tasks, sec_per_unit=1e-4)
    tracer = Tracer()
    metrics = Session(trace, strategy=RandomAllocation(), num_nodes=4, seed=7,
                      faults=FaultPlan.fail_stop(((2, 0.01),)),
                      trace=tracer).run()

    assert metrics.extra["crashed_nodes"] == [2]
    assert metrics.extra["lost_task_ids"] == [1, 2, 4]
    assert metrics.extra["lost_tasks"] == 3

    report = audit_conservation(
        trace, tracer.records,
        metrics.extra["lost_task_ids"], metrics.extra["crashed_nodes"])
    assert report.ok, report.summary()
    assert report.justified_lost == [1, 2, 4]
    assert report.executed_once == 2  # the movable filler still ran


def test_combo_plan_conserves_under_everything_at_once():
    # The kitchen sink: drops, duplicates, delays, reordering, an outage,
    # a stall, and two staggered crashes — one run, still conservative.
    plan = FaultPlan(
        seed=404, drop_rate=0.01, duplicate_rate=0.01, delay_rate=0.01,
        reorder_rate=0.01, outages=((0, 1, 0.0, 0.01),),
        stalls=((3, 0.005, 0.01),), crashes=((5, 0.01), (9, 0.02)),
    )
    req = RunRequest("queens-10", "RIPS", num_nodes=16, seed=11,
                     scale="small", faults=plan, trace=True)
    m = execute_request(req)
    assert m.T > 0
    assert m.extra["crashed_nodes"] == [5, 9]
    trace = workload("queens-10", "small").build(16)
    report = audit_conservation(
        trace, m.extra["trace_records"],
        m.extra["lost_task_ids"], m.extra["crashed_nodes"])
    assert report.ok, report.summary()
