"""Property-based stress tests of the full runtime.

Hypothesis generates random workload traces (arbitrary spawn forests
with waves, pinning, and homes) and random machine shapes; every
strategy must execute every task exactly once, respect pinning, and
produce self-consistent metrics.  These invariants are the ones the
strategies could silently break (losing tasks in a pool, migrating a
pinned task, double-executing after a duplicated message).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.balancers import (
    GradientModel,
    RandomAllocation,
    ReceiverInitiatedDiffusion,
    SenderInitiatedDiffusion,
    StaticPreschedule,
)
from repro.core import RIPS
from repro.machine import MeshTopology
from repro.session import Session
from repro.tasks.trace import TraceTask, WorkloadTrace

STRATEGY_FACTORIES = [
    RandomAllocation,
    GradientModel,
    ReceiverInitiatedDiffusion,
    SenderInitiatedDiffusion,
    StaticPreschedule,
    lambda: RIPS("lazy", "any"),
    lambda: RIPS("eager", "any"),
    lambda: RIPS("eager", "all"),
]


@st.composite
def random_traces(draw):
    """A random forest of tasks with waves, homes, and optional pinning."""
    n_waves = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    tasks: list[dict] = []
    prev_wave_ids: list[int] = []
    for wave in range(n_waves):
        n_wave = draw(st.integers(1, 25))
        ids = []
        for _ in range(n_wave):
            tid = len(tasks)
            ids.append(tid)
            tasks.append(
                dict(
                    id=tid,
                    work=float(rng.integers(1, 400)),
                    wave=wave,
                    children=[],
                    pinned=0 if rng.random() < 0.05 else None,
                    home=int(rng.integers(0, 4)) if wave == 0 else None,
                )
            )
        # intra-wave spawn edges: each non-first task may become a child
        # of an earlier same-wave task
        for k, tid in enumerate(ids[1:], start=1):
            if rng.random() < 0.5:
                parent = ids[int(rng.integers(0, k))]
                tasks[parent]["children"].append(tid)
                tasks[tid]["home"] = None
        # cross-wave edges: wave > 0 tasks must be children of earlier
        # tasks (roots are only allowed in wave 0)
        if wave > 0:
            for tid in ids:
                is_child = any(tid in t["children"] for t in tasks)
                if not is_child:
                    parent = prev_wave_ids[int(rng.integers(0, len(prev_wave_ids)))]
                    tasks[parent]["children"].append(tid)
        prev_wave_ids = ids
    built = [
        TraceTask(
            t["id"], t["work"], t["wave"], tuple(t["children"]),
            t["pinned"], t["home"],
        )
        for t in tasks
    ]
    return WorkloadTrace("random", built, sec_per_unit=1e-5)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    trace=random_traces(),
    strat_idx=st.integers(0, len(STRATEGY_FACTORIES) - 1),
    seed=st.integers(0, 1000),
)
def test_every_strategy_executes_every_task_exactly_once(trace, strat_idx, seed):
    sess = Session(trace, topology=MeshTopology(2, 2),
                   strategy=STRATEGY_FACTORIES[strat_idx](), seed=seed)
    metrics = sess.run()
    machine, driver = sess.machine, sess.driver
    # completion: every task ran somewhere
    assert all(r >= 0 for r in driver.executed_at)
    # pinning respected
    for t in trace:
        if t.pinned is not None:
            assert driver.executed_at[t.id] == t.pinned
    # metric sanity
    assert metrics.T > 0
    assert 0 <= metrics.nonlocal_tasks <= len(trace)
    assert metrics.Ts == pytest.approx(trace.total_work_seconds())
    assert metrics.T >= trace.total_work_seconds() / machine.num_nodes - 1e-9
    # accounting identity: total CPU time never exceeds N * makespan
    assert (
        machine.cpu_time("task") + machine.cpu_time("overhead")
        <= machine.num_nodes * metrics.T + 1e-9
    )


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=random_traces(), seed=st.integers(0, 100))
def test_rips_determinism_property(trace, seed):
    def once():
        return Session(trace, topology=MeshTopology(2, 2),
                       strategy=RIPS("lazy", "any"), seed=seed).run()

    a, b = once(), once()
    assert a.T == b.T
    assert a.messages == b.messages
    assert a.system_phases == b.system_phases
