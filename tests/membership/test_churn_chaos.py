"""The churn chaos harness: plan generation, the epoch invariants, and
ddmin shrinking over membership atoms."""

import random

import pytest

from repro.faults.chaos import (random_churn_plan, run_case, run_chaos,
                                scheduled_fault_count, shrink_plan, _atoms,
                                _build)
from repro.faults.plan import FaultPlan


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def test_churn_plan_is_deterministic_and_bounded():
    a = random_churn_plan(random.Random(123))
    b = random_churn_plan(random.Random(123))
    assert a == b
    for i in range(40):
        plan = random_churn_plan(random.Random(i))
        assert plan.detector == "heartbeat"
        assert plan.has_membership()
        assert 1 <= len(plan.joins) <= 3
        assert {r for r, _ in plan.joins} == set(plan.standby)
        assert 0 not in plan.standby
        assert all(r != 0 for r, _ in plan.leaves)
        assert all(r != 0 for r, _ in plan.crashes)
        # leavers never also crash; standby ranks never leave
        leaving = {r for r, _ in plan.leaves}
        assert not leaving & {r for r, _ in plan.crashes}
        assert not leaving & set(plan.standby)
        # every generated plan survives validation + canonical round trip
        assert FaultPlan.from_canonical(plan.canonical()) == plan


def test_scheduled_fault_count_includes_membership():
    plan = FaultPlan.elastic(standby=(5,), joins=((5, 0.003),),
                             leaves=((3, 0.005),), elections=(0.004, 0.006),
                             crashes=((7, 0.008),))
    assert scheduled_fault_count(plan) == 5


# ----------------------------------------------------------------------
# the campaign on a healthy harness
# ----------------------------------------------------------------------
def test_small_churn_campaign_is_green():
    rep = run_chaos(cases=3, seed=0, churn=True)
    assert rep.ok, [c.violations for c in rep.failures()]
    assert len(rep.cases) == 3
    assert rep.reproducers == []
    for case in rep.cases:
        # every churn case really does change the member set
        assert case.plan.has_membership()
        assert any(e["kind"] == "join"
                   for e in _membership(case)["transitions"])


def _membership(case):
    # re-run is cheap relative to clarity: verdicts are deterministic
    from repro.session import Session

    sess = Session("queens-10", strategy="RIPS", num_nodes=16, seed=1234,
                   scale="small", faults=case.plan, trace=True)
    return sess.run().extra["membership"]


def test_churn_case_verdicts_are_reproducible():
    plan = random_churn_plan(random.Random((0 << 20) ^ 1))
    a = run_case(plan)
    b = run_case(plan)
    assert a.ok and b.ok
    assert a.sim_time == b.sim_time
    assert a.detail == b.detail


def test_stale_gather_traffic_outside_the_forest_is_dropped():
    """Regression (churn campaign case 22): a retransmitted gather
    contribution can land at a rank the epoch rebuild left outside the
    current forest (``parent == -2``).  Completing that slot used to
    forward to the -2 sentinel and crash the router; it must be dropped
    as stale traffic instead."""
    plan = FaultPlan.elastic(
        standby=(4,), joins=((4, 0.002425),), leaves=((3, 0.014635),),
        elections=(0.008222, 0.013726), detector="heartbeat",
        seed=497661061)
    case = run_case(plan)
    assert case.ok, case.violations


def test_a_draining_member_is_never_elected_root():
    """Regression (faults-churn16 seed 135, cell 1): rank 3 starts
    draining at 6.74 ms and used to win the election that commits at
    9.25 ms.  Once its leave committed the root was a departed rank,
    every later ``depart`` went to it forever, and RIPS never finished.
    Draining members are not usable: they neither stand nor count in a
    quorum."""
    plan = FaultPlan(
        seed=479248816, drop_rate=0.005, standby=(1, 4),
        joins=((1, 0.007095), (4, 0.006544)),
        leaves=((3, 0.006742), (7, 0.015707)),
        elections=(0.006136, 0.008167), detector="heartbeat")
    case = run_case(plan, workload="queens-10", num_nodes=16, seed=1369,
                    max_events=1_000_000)
    assert case.ok, case.violations


# ----------------------------------------------------------------------
# the epoch judge catches violations
# ----------------------------------------------------------------------
def test_epoch_judge_catches_a_lost_task():
    """A sabotaged run that loses one task at a leave boundary must fail
    epoch-conservation (the exact-zero invariant, not a tolerance)."""
    plan = FaultPlan.elastic(leaves=((3, 0.004),), detector="heartbeat",
                             seed=6)

    def sabotage(sess):
        driver = sess.driver

        def eat_one(rank):
            # runs inside the synchronous drain step, before the commit:
            # the epoch's exact lost-task delta becomes 1
            driver.lost_tasks.append((-1, "sabotaged-drain"))
            return 0

        sess.machine.faults.on_node_departing(eat_one)

    case = run_case(plan, mutate=sabotage)
    assert not case.ok
    assert any(v.startswith("epoch-conservation") for v in case.violations)


# ----------------------------------------------------------------------
# shrinking over membership atoms
# ----------------------------------------------------------------------
def test_atoms_cover_membership_and_rebuild_identically():
    plan = random_churn_plan(random.Random(9))
    atoms = _atoms(plan)
    kinds = {k for k, _ in atoms}
    assert "joins" in kinds
    rebuilt = _build(plan, atoms)
    assert rebuilt == plan
    # dropping a join atom removes the rank from standby too (unless it
    # was independently listed), keeping the plan valid
    no_joins = _build(plan, [a for a in atoms if a[0] != "joins"])
    assert no_joins.joins == ()
    for rank in {r for r, _ in plan.joins}:
        assert rank not in no_joins.standby


def test_shrink_refuses_a_passing_churn_plan():
    plan = random_churn_plan(random.Random((0 << 20) ^ 1))
    with pytest.raises(ValueError, match="does not fail"):
        shrink_plan(plan, lambda _p: False, budget=4)
