"""Tests for the baseline balancers (random, gradient, RID, SID)."""

import pytest

from repro.balancers import (
    GradientModel,
    RandomAllocation,
    ReceiverInitiatedDiffusion,
    SenderInitiatedDiffusion,
)
from repro.machine import MeshTopology
from repro.session import Session
from repro.tasks.trace import TraceTask, WorkloadTrace

from ..conftest import make_pinned_trace, make_tree_trace, make_wave_trace

ALL_STRATEGIES = [
    RandomAllocation,
    GradientModel,
    ReceiverInitiatedDiffusion,
    SenderInitiatedDiffusion,
]


@pytest.mark.parametrize("factory", ALL_STRATEGIES)
def test_strategies_complete_tree_workload(factory):
    trace = make_tree_trace()
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=factory(),
                      seed=11).run()
    assert metrics.num_tasks == len(trace)
    assert metrics.T > 0
    assert 0 < metrics.efficiency <= 1.0


@pytest.mark.parametrize("factory", ALL_STRATEGIES)
def test_strategies_complete_wave_workload(factory):
    trace = make_wave_trace()
    metrics = Session(trace, topology=MeshTopology(2, 2), strategy=factory(),
                      seed=11).run()
    assert metrics.num_tasks == len(trace)


@pytest.mark.parametrize("factory", ALL_STRATEGIES)
def test_pinned_tasks_respected(factory):
    trace = make_pinned_trace()
    sess = Session(trace, topology=MeshTopology(2, 2), strategy=factory(),
                   seed=11)
    sess.run()
    d = sess.driver
    for t in trace:
        if t.pinned is not None:
            assert d.executed_at[t.id] == t.pinned


def test_random_scatters_almost_everything():
    trace = make_tree_trace()
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=RandomAllocation(),
                      seed=3).run()
    # expected nonlocal fraction ~ (N-1)/N = 93.75%
    assert metrics.nonlocal_tasks > 0.8 * metrics.num_tasks


def test_random_is_seed_deterministic():
    trace = make_tree_trace()

    def run(seed):
        return Session(trace, topology=MeshTopology(4, 4),
                       strategy=RandomAllocation(), seed=seed).run()

    r1, r2 = run(3), run(3)
    assert r1.T == r2.T and r1.nonlocal_tasks == r2.nonlocal_tasks
    r3 = run(4)
    assert r3.T != r1.T  # different stream, different outcome


def test_gradient_moves_load_from_hot_node():
    # all work starts at node 0; gradient must spread at least some of it
    tasks = [TraceTask(0, 1.0, 0, tuple(range(1, 41)))]
    tasks += [TraceTask(i, 500.0, 0) for i in range(1, 41)]
    trace = WorkloadTrace("hot", tasks, sec_per_unit=1e-5)
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=GradientModel(),
                      seed=3).run()
    assert metrics.nonlocal_tasks > 5
    assert metrics.extra["proximity_updates"] > 0


def test_gradient_parameter_validation():
    with pytest.raises(ValueError):
        GradientModel(low_mark=3, high_mark=3)
    with pytest.raises(ValueError):
        GradientModel(low_mark=-1, high_mark=2)


def test_rid_pulls_work_when_idle():
    tasks = [TraceTask(0, 1.0, 0, tuple(range(1, 41)))]
    tasks += [TraceTask(i, 500.0, 0) for i in range(1, 41)]
    trace = WorkloadTrace("hot", tasks, sec_per_unit=1e-5)
    strat = ReceiverInitiatedDiffusion()
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=strat, seed=3).run()
    assert metrics.extra["requests"] > 0
    assert metrics.extra["grants"] > 0
    assert metrics.nonlocal_tasks > 5


def test_rid_update_factor_controls_update_volume():
    trace = make_tree_trace(n_children=60)

    def updates(u):
        strat = ReceiverInitiatedDiffusion(update_factor=u)
        Session(trace, topology=MeshTopology(4, 4), strategy=strat, seed=3).run()
        return strat.load_updates

    # the paper: u=0.9 updates "too frequently"; 0.4 is far calmer
    assert updates(0.9) > updates(0.4)


def test_rid_parameter_validation():
    with pytest.raises(ValueError):
        ReceiverInitiatedDiffusion(l_low=0)
    with pytest.raises(ValueError):
        ReceiverInitiatedDiffusion(l_threshold=-1)
    with pytest.raises(ValueError):
        ReceiverInitiatedDiffusion(update_factor=0.0)
    with pytest.raises(ValueError):
        ReceiverInitiatedDiffusion(update_factor=1.5)


def test_sid_pushes_work_from_hot_node():
    tasks = [TraceTask(0, 1.0, 0, tuple(range(1, 41)))]
    tasks += [TraceTask(i, 500.0, 0) for i in range(1, 41)]
    trace = WorkloadTrace("hot", tasks, sec_per_unit=1e-5)
    strat = SenderInitiatedDiffusion()
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=strat, seed=3).run()
    assert metrics.extra["pushes"] > 0
    assert metrics.nonlocal_tasks > 5


def test_sid_parameter_validation():
    with pytest.raises(ValueError):
        SenderInitiatedDiffusion(l_high=0)
    with pytest.raises(ValueError):
        SenderInitiatedDiffusion(update_factor=2.0)


def test_locality_ordering_on_preplaced_workload():
    """On a block-pre-placed workload (GROMOS-shaped), random destroys
    locality while the diffusion strategies preserve most of it."""
    per = 25
    tasks = []
    for i in range(16 * per):
        tasks.append(TraceTask(i, 100.0 + (i % 7) * 40, home=i // per))
    trace = WorkloadTrace("block", tasks, sec_per_unit=1e-5)
    results = {}
    for factory in (RandomAllocation, ReceiverInitiatedDiffusion):
        results[factory.__name__] = Session(trace, topology=MeshTopology(4, 4), strategy=factory(),
                                            seed=5).run()
    assert (
        results["RandomAllocation"].nonlocal_tasks
        > 3 * results["ReceiverInitiatedDiffusion"].nonlocal_tasks
    )
