"""Tests for the execution runtime (driver, worker, metrics)."""

import pytest

from repro.balancers.base import Driver, ExecutionConfig, RunMetrics, Strategy
from repro.session import Session
from repro.machine import MeshTopology
from repro.tasks.trace import TraceTask, WorkloadTrace

from ..conftest import make_tree_trace, make_wave_trace


class LocalOnly(Strategy):
    """Trivial strategy: everything runs where it materializes."""

    name = "local-only"


def test_local_only_runs_everything_on_home_nodes():
    tasks = [
        TraceTask(0, 100.0, home=2),
        TraceTask(1, 100.0, home=3),
    ]
    trace = WorkloadTrace("homes", tasks, sec_per_unit=1e-3)
    sess = Session(trace, topology=MeshTopology(2, 2), strategy=LocalOnly(),
                   seed=0)
    metrics = sess.run()
    assert sess.driver.executed_at == [2, 3]
    assert metrics.nonlocal_tasks == 0
    # both tasks run in parallel on distinct nodes
    assert metrics.T == pytest.approx(0.1, rel=0.1)


def test_every_task_executes_exactly_once(tree_trace):
    sess = Session(tree_trace, topology=MeshTopology(4, 4),
                   strategy=LocalOnly(), seed=0)
    sess.run()
    d = sess.driver
    assert all(r >= 0 for r in d.executed_at)
    assert all(r >= 0 for r in d.created_at)


def test_children_materialize_where_parent_ran():
    tasks = [TraceTask(0, 10.0, 0, (1,), home=1), TraceTask(1, 10.0)]
    trace = WorkloadTrace("chain", tasks, sec_per_unit=1e-3)
    sess = Session(trace, topology=MeshTopology(2, 2), strategy=LocalOnly(),
                   seed=0)
    sess.run()
    d = sess.driver
    assert d.created_at[1] == 1
    assert d.executed_at[1] == 1


def test_wave_barrier_orders_execution():
    """No wave-1 task may start before every wave-0 task finished."""
    trace = make_wave_trace(waves=2, per_wave=8)
    sess = Session(trace, topology=MeshTopology(2, 2), strategy=LocalOnly(),
                   seed=0)
    m = sess.machine

    finish_times = {}
    orig = Driver._task_finished

    def spy(self, rank, tid):
        finish_times[tid] = m.sim.now
        orig(self, rank, tid)

    Driver._task_finished = spy
    try:
        sess.run()
    finally:
        Driver._task_finished = orig
    wave0_end = max(finish_times[t.id] for t in trace if t.wave == 0)
    for t in trace:
        if t.wave == 1:
            start = finish_times[t.id] - trace.duration(t.id)
            assert start >= wave0_end - 1e-12


def test_metrics_identity_holds(tree_trace):
    metrics = Session(tree_trace, topology=MeshTopology(4, 4), strategy=LocalOnly(), seed=0).run()
    n = metrics.num_nodes
    # T >= task/node + Th + Ti decomposition per definition
    per_node_task = metrics.Ts / n
    assert metrics.T == pytest.approx(per_node_task + metrics.Th + metrics.Ti, rel=0.3)
    assert metrics.efficiency == pytest.approx(metrics.Ts / (n * metrics.T))
    assert metrics.speedup == pytest.approx(metrics.Ts / metrics.T)


def test_run_metrics_row_shape():
    r = RunMetrics(
        workload="w", strategy="s", num_nodes=4, num_tasks=10,
        nonlocal_tasks=3, T=1.0, Th=0.1, Ti=0.2, efficiency=0.7, Ts=2.8,
    )
    row = r.row()
    assert row["workload"] == "w" and row["nonlocal"] == 3


def test_execution_config_validation():
    with pytest.raises(ValueError):
        ExecutionConfig(task_start_overhead=-1.0)


def test_worker_take_and_drain(mesh16, tree_trace):
    d = Driver(mesh16, tree_trace, LocalOnly())
    w = d.workers[0]
    for tid in (1, 2, 3, 4):
        w.enqueue(tid)
    assert w.take(2) == [4, 3]  # takes from the back (coldest)
    assert w.drain() == [1, 2]
    assert w.rte_empty


def test_worker_front_enqueue(mesh16, tree_trace):
    d = Driver(mesh16, tree_trace, LocalOnly())
    w = d.workers[0]
    w.enqueue(1)
    w.enqueue(2, front=True)
    assert list(w.queue) == [2, 1]


def test_stranded_workload_raises():
    class Hoarder(Strategy):
        """Never lets anything run: immediate deadlock."""

        name = "hoarder"

        def place_root(self, rank, tid):
            pass  # drops the task

    tasks = [TraceTask(0, 1.0)]
    trace = WorkloadTrace("t", tasks, sec_per_unit=1.0)
    sess = Session(trace, topology=MeshTopology(2, 2), strategy=Hoarder(),
                   seed=0)
    with pytest.raises(RuntimeError, match="stranded"):
        sess.run()


def test_spawn_overhead_charged():
    cfg = ExecutionConfig(spawn_overhead=1e-3)
    tasks = [TraceTask(0, 1.0, 0, (1, 2)), TraceTask(1, 1.0), TraceTask(2, 1.0)]
    trace = WorkloadTrace("t", tasks, sec_per_unit=1e-6)
    metrics = Session(trace, topology=MeshTopology(1, 1), strategy=LocalOnly(), seed=0,
                      config=cfg).run()
    # 2 children -> 2e-3 spawn + 3 task starts
    assert metrics.Th >= 2e-3
