"""The chaos harness: generation determinism, invariant checking, and
ddmin shrinking of an intentionally broken run."""

import json
import random

import pytest

from repro.faults.chaos import (random_plan, run_case, run_chaos,
                                scheduled_fault_count, shrink_plan)
from repro.faults.plan import FaultPlan

#: tight event budget for tests that *expect* hangs — a healthy chaos
#: case finishes inside the first 250k-event chunk
FAST_CAP = 500_000


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def test_random_plan_is_deterministic_and_bounded():
    a = random_plan(random.Random(123))
    b = random_plan(random.Random(123))
    assert a == b
    for i in range(40):
        plan = random_plan(random.Random(i))
        assert plan.detector == "heartbeat"
        assert all(rank != 0 for rank, _t in plan.crashes)
        assert scheduled_fault_count(plan) <= 7
        # every generated plan survives its own validation + round trip
        assert FaultPlan.from_canonical(plan.canonical()) == plan


# ----------------------------------------------------------------------
# the campaign on a healthy harness
# ----------------------------------------------------------------------
def test_small_campaign_is_green():
    rep = run_chaos(cases=3, seed=0)
    assert rep.ok, [c.violations for c in rep.failures()]
    assert len(rep.cases) == 3
    assert rep.reproducers == []
    for case in rep.cases:
        assert case.sim_time > 0
        assert case.detail["max_quota_spread"] <= 1


def test_case_verdicts_are_reproducible():
    plan = random_plan(random.Random((0 << 20) ^ 1))
    a = run_case(plan)
    b = run_case(plan)
    assert a.ok and b.ok
    assert a.sim_time == b.sim_time
    assert a.detail == b.detail


# ----------------------------------------------------------------------
# an intentionally broken injector is caught and shrunk
# ----------------------------------------------------------------------
def _sabotage(sess):
    """The test fixture ISSUE-5 asks for: silently swallow one rescued
    task per crash — a conservation bug the invariants must catch."""
    strat = sess.driver.strategy
    orig = strat.on_node_removed

    def broken(rank):
        rescued = orig(rank)
        return rescued[1:] if rescued else rescued

    strat.on_node_removed = broken


def test_broken_injector_is_caught_and_shrinks_small():
    # find the first generated plan that schedules a crash
    for i in range(50):
        plan = random_plan(random.Random((0 << 20) ^ i))
        if plan.crashes:
            break
    case = run_case(plan, mutate=_sabotage, max_events=FAST_CAP)
    assert not case.ok
    assert any(v.startswith(("termination", "conservation"))
               for v in case.violations)

    def fails(candidate):
        return not run_case(candidate, mutate=_sabotage,
                            max_events=FAST_CAP).ok

    shrunk, spent = shrink_plan(plan, fails, budget=24)
    assert scheduled_fault_count(shrunk) <= 3
    assert shrunk.crashes  # the culprit survived the shrink
    assert spent <= 24
    # and the reproducer replays through the canonical-JSON round trip
    replay = FaultPlan.from_canonical(json.loads(json.dumps(shrunk.canonical())))
    assert not run_case(replay, mutate=_sabotage, max_events=FAST_CAP).ok
    assert run_case(replay, max_events=FAST_CAP).ok  # healthy harness passes


def test_shrink_refuses_a_passing_plan():
    plan = random_plan(random.Random((0 << 20) ^ 0))
    with pytest.raises(ValueError, match="does not fail"):
        shrink_plan(plan, lambda _p: False, budget=4)
