"""Tests for the ANY-policy init-broadcast backoff."""

import pytest

from repro.session import Session
from repro.core import RIPS
from repro.machine import MeshTopology
from repro.tasks.trace import TraceTask, WorkloadTrace

from ..conftest import make_tree_trace


def hot_node_trace(n_tasks: int = 40) -> WorkloadTrace:
    tasks = [TraceTask(0, 1.0, 0, tuple(range(1, n_tasks + 1)))]
    tasks += [TraceTask(i, 300.0, 0) for i in range(1, n_tasks + 1)]
    return WorkloadTrace("hot", tasks, sec_per_unit=1e-5)


def test_backoff_suppresses_redundant_broadcasts():
    """When many nodes idle simultaneously, the staggered initiation must
    produce far fewer init messages than one broadcast per idle node per
    phase would."""
    trace = hot_node_trace()
    metrics = Session(trace, topology=MeshTopology(4, 4), strategy=RIPS("lazy", "any"),
                      seed=5).run()
    phases = metrics.system_phases
    assert phases >= 1
    # upper bound if every one of 16 nodes broadcast every phase:
    # 16 * 15 messages; the backoff should cut total traffic well below
    # the flood even counting gathers, plans, and migrations
    assert metrics.messages < phases * 16 * 15


def test_backoff_preserves_completion_and_determinism():
    trace = make_tree_trace()

    def once():
        return Session(trace, topology=MeshTopology(4, 4), strategy=RIPS("lazy", "any"),
                       seed=9).run()

    a, b = once(), once()
    assert a.num_tasks == len(trace)
    assert a.T == b.T and a.messages == b.messages


def test_stale_backoff_does_not_fire_extra_phases():
    """A node whose backoff expires after the phase already advanced
    must not initiate with a stale phase number (no phase inflation)."""
    trace = make_tree_trace(n_children=20)
    metrics = Session(trace, topology=MeshTopology(2, 2), strategy=RIPS("lazy", "any"),
                      seed=11).run()
    # loose sanity bound: phases cannot exceed task count
    assert metrics.system_phases <= len(trace)
    assert metrics.num_tasks == len(trace)
