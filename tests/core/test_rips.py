"""Tests of the RIPS runtime protocol."""

import pytest

from repro.session import Session
from repro.core import GlobalPolicy, LocalPolicy, RIPS
from repro.core.schedulers import OptimalPlanner, TreeWalkPlanner
from repro.machine import MeshTopology, TreeTopology
from repro.tasks.trace import TraceTask, WorkloadTrace

from ..conftest import make_pinned_trace, make_tree_trace, make_wave_trace

ALL_POLICIES = [
    ("lazy", "any"),
    ("eager", "any"),
    ("lazy", "all"),
    ("eager", "all"),
]


@pytest.mark.parametrize("local,global_", ALL_POLICIES)
def test_all_policy_combinations_complete(local, global_):
    trace = make_tree_trace()
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=RIPS(local, global_),
                      seed=1).run()
    assert metrics.num_tasks == len(trace)
    assert metrics.T > 0
    assert metrics.system_phases >= 1
    assert metrics.strategy == f"RIPS-{global_}-{local}"


def test_any_lazy_beats_serial_execution(tree_trace):
    metrics = Session(tree_trace, topology=MeshTopology(4, 4), strategy=RIPS("lazy", "any"),
                      seed=1).run()
    # parallel run must be far below sequential time
    assert metrics.T < 0.25 * metrics.Ts


def test_starts_with_a_system_phase():
    """Figure 1: a RIPS run begins with a system phase that distributes
    the initial tasks — so even a root-heavy workload spreads."""
    tasks = [TraceTask(0, 10.0, 0, tuple(range(1, 33)))]
    tasks += [TraceTask(i, 1000.0, 0) for i in range(1, 33)]
    trace = WorkloadTrace("fan", tasks, sec_per_unit=1e-5)
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=RIPS("lazy", "any"),
                      seed=1).run()
    # 32 equal children over 16 nodes: near-perfect balance
    assert metrics.efficiency > 0.5
    assert metrics.nonlocal_tasks >= 16


def test_eager_schedules_everything_lazy_does_not(tree_trace):
    eager = Session(tree_trace, topology=MeshTopology(4, 4), strategy=RIPS("eager", "any"),
                    seed=1).run()
    lazy = Session(tree_trace, topology=MeshTopology(4, 4), strategy=RIPS("lazy", "any"),
                   seed=1).run()
    # eager must schedule (and hence pool) every task; lazy executes some
    # directly.  More phases and/or more migrated tasks for eager.
    assert eager.extra["migrated_tasks"] >= lazy.extra["migrated_tasks"]


def test_wave_barriers_respected(wave_trace):
    metrics = Session(wave_trace, topology=MeshTopology(2, 2), strategy=RIPS("lazy", "any"),
                      seed=5).run()
    assert metrics.num_tasks == len(wave_trace)
    assert metrics.efficiency > 0.3


def test_pinned_tasks_never_migrate(pinned_trace):
    sess = Session(pinned_trace, topology=MeshTopology(2, 2),
                   strategy=RIPS("lazy", "any"), seed=5)
    sess.run()
    for t in pinned_trace:
        if t.pinned is not None:
            assert sess.driver.executed_at[t.id] == t.pinned


def test_rips_on_tree_topology():
    trace = make_tree_trace()
    metrics = Session(trace, topology=TreeTopology(15), strategy=RIPS("lazy", "any"), seed=2).run()
    assert metrics.num_tasks == len(trace)
    assert metrics.efficiency > 0.3


def test_rips_with_explicit_planner():
    trace = make_tree_trace()
    topo = TreeTopology(7)
    strat = RIPS("lazy", "any", planner=TreeWalkPlanner(topo))
    metrics = Session(trace, topology=topo, strategy=strat, seed=2).run()
    assert metrics.num_tasks == len(trace)


def test_rips_with_optimal_planner_ablation():
    trace = make_tree_trace()
    topo = MeshTopology(4, 4)
    strat = RIPS("lazy", "any", planner=OptimalPlanner(topo))
    metrics = Session(trace, topology=topo, strategy=strat, seed=2).run()
    assert metrics.num_tasks == len(trace)
    assert metrics.system_phases >= 1


def test_single_task_workload():
    trace = WorkloadTrace("one", [TraceTask(0, 100.0)], sec_per_unit=1e-4)
    metrics = Session(trace, topology=MeshTopology(2, 2), strategy=RIPS("lazy", "any"),
                      seed=0).run()
    assert metrics.num_tasks == 1
    assert metrics.T >= 0.01


def test_empty_trace_is_fine():
    trace = WorkloadTrace("empty", [], sec_per_unit=1.0)
    metrics = Session(trace, topology=MeshTopology(2, 2), strategy=RIPS("lazy", "any"),
                      seed=0).run()
    assert metrics.num_tasks == 0 and metrics.T == 0.0


def test_single_node_machine():
    trace = make_tree_trace(n_children=10)
    metrics = Session(trace, topology=MeshTopology(1, 1), strategy=RIPS("lazy", "any"),
                      seed=0).run()
    assert metrics.nonlocal_tasks == 0
    assert metrics.efficiency > 0.9


def test_policy_enums_accept_strings():
    s = RIPS(LocalPolicy.EAGER, GlobalPolicy.ALL)
    assert s.local_policy is LocalPolicy.EAGER
    assert s.global_policy is GlobalPolicy.ALL
    s2 = RIPS("eager", "all")
    assert s2.local_policy is LocalPolicy.EAGER
    with pytest.raises(ValueError):
        RIPS("sometimes", "any")


def test_metrics_extras_populated(tree_trace):
    metrics = Session(tree_trace, topology=MeshTopology(4, 4), strategy=RIPS("lazy", "any"),
                      seed=1).run()
    assert metrics.extra["local_policy"] == "lazy"
    assert metrics.extra["global_policy"] == "any"
    assert metrics.extra["migrated_tasks"] >= metrics.nonlocal_tasks >= 0
    assert metrics.extra["plan_cost_total"] >= 0
