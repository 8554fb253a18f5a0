"""Tests for the static-prescheduling baseline."""

import pytest

from repro.balancers import StaticPreschedule
from repro.session import Session
from repro.core import RIPS
from repro.machine import MeshTopology
from repro.tasks.trace import TraceTask, WorkloadTrace

from ..conftest import make_pinned_trace, make_tree_trace, make_wave_trace


def test_static_completes_tree_workload(tree_trace):
    metrics = Session(tree_trace, topology=MeshTopology(4, 4), strategy=StaticPreschedule(),
                      seed=3).run()
    assert metrics.num_tasks == len(tree_trace)
    assert metrics.system_phases == 1


def test_static_balances_uniform_roots_perfectly():
    # 32 equal root tasks, no spawning: static is as good as it gets
    tasks = [TraceTask(i, 1000.0, home=0) for i in range(32)]
    trace = WorkloadTrace("uniform", tasks, sec_per_unit=1e-5)
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=StaticPreschedule(),
                      seed=3).run()
    assert metrics.efficiency > 0.85


def test_static_cannot_correct_spawning_imbalance(tree_trace):
    """The incremental ablation: RIPS corrects runtime imbalance that a
    one-shot preschedule cannot."""
    static = Session(tree_trace, topology=MeshTopology(4, 4), strategy=StaticPreschedule(),
                     seed=3).run()
    rips = Session(tree_trace, topology=MeshTopology(4, 4), strategy=RIPS("lazy", "any"),
                   seed=3).run()
    # the tree workload has one root whose children all spawn on one
    # node under static scheduling
    assert rips.T < static.T
    assert rips.efficiency > static.efficiency


def test_static_respects_pinned(pinned_trace):
    sess = Session(pinned_trace, topology=MeshTopology(2, 2),
                   strategy=StaticPreschedule(), seed=3)
    sess.run()
    for t in pinned_trace:
        if t.pinned is not None:
            assert sess.driver.executed_at[t.id] == t.pinned


def test_static_completes_waves(wave_trace):
    metrics = Session(wave_trace, topology=MeshTopology(2, 2), strategy=StaticPreschedule(),
                      seed=3).run()
    assert metrics.num_tasks == len(wave_trace)
