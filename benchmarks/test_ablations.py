"""Ablation benchmarks for the design choices DESIGN.md calls out.

* ANY-Lazy vs the other three policy combinations (Section 2's claim);
* MWA vs DEM vs min-cost-flow as the system-phase planner;
* packed vs per-task migration messages (Section 5's packing credit);
* detection: ready-signal tree (ALL) message cost vs ANY broadcasts.
"""

from __future__ import annotations

import pytest

from repro.apps import nqueens_trace
from repro.session import Session
from repro.core import RIPS
from repro.core.schedulers import OptimalPlanner
from repro.machine import MeshTopology
from repro.metrics import format_table

from benchmarks.conftest import save_and_print


@pytest.fixture(scope="module")
def trace():
    return nqueens_trace(11, split_depth=3)


def _run(trace, strategy, shape=(4, 4), seed=31):
    return Session(trace, topology=MeshTopology(*shape), strategy=strategy, seed=seed).run()


def test_ablation_policy_grid(benchmark, results_dir, trace):
    def grid():
        out = {}
        for local in ("lazy", "eager"):
            for global_ in ("any", "all"):
                out[(global_, local)] = _run(trace, RIPS(local, global_))
        return out

    results = benchmark.pedantic(grid, rounds=1, iterations=1)
    rows = [
        {
            "policy": f"{g.upper()}-{l.capitalize()}",
            "T(ms)": f"{m.T * 1e3:.1f}",
            "mu": f"{m.efficiency:.1%}",
            "phases": m.system_phases,
            "migrated": m.extra["migrated_tasks"],
        }
        for (g, l), m in results.items()
    ]
    save_and_print(results_dir, "ablation_policies",
                   format_table(rows, title="RIPS policy ablation"))
    # Section 2: ANY-Lazy is the best combination; ALL-Lazy degenerates
    # on single-root workloads (it can never drain all queues at once).
    best = min(results.values(), key=lambda m: m.T)
    assert results[("any", "lazy")].T <= 1.3 * best.T
    assert results[("all", "lazy")].T > results[("any", "lazy")].T


def test_ablation_planner_choice(benchmark, results_dir, trace):
    topo_shape = (4, 4)

    def run_planners():
        out = {}
        out["mwa"] = _run(trace, RIPS("lazy", "any"))
        out["optimal"] = _run(
            trace,
            RIPS("lazy", "any", planner=OptimalPlanner(MeshTopology(*topo_shape))),
        )
        return out

    results = benchmark.pedantic(run_planners, rounds=1, iterations=1)
    rows = [
        {
            "planner": name,
            "T(ms)": f"{m.T * 1e3:.1f}",
            "mu": f"{m.efficiency:.1%}",
            "plan task-hops": m.extra["plan_cost_total"],
        }
        for name, m in results.items()
    ]
    save_and_print(results_dir, "ablation_planner",
                   format_table(rows, title="system-phase planner ablation"))
    # MWA must be within a few percent of the min-cost-flow oracle
    assert results["mwa"].T <= 1.15 * results["optimal"].T


def test_ablation_message_packing(benchmark, results_dir, trace):
    """Packed migration (one message per destination) vs per-task sends.

    Realized by comparing RIPS (packs) against randomized allocation
    (pays one message per task) on the same workload: the per-message
    software overhead difference is exactly the packing win the paper
    describes in Section 5.
    """
    from repro.balancers import RandomAllocation

    def run_pair():
        return {
            "RIPS (packed)": _run(trace, RIPS("lazy", "any")),
            "random (per-task)": _run(trace, RandomAllocation()),
        }

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    rows = [
        {
            "scheme": name,
            "task msgs": m.extra["task_messages"],
            "tasks moved": m.nonlocal_tasks,
            "tasks/msg": f"{m.extra['packing_ratio']:.2f}",
            "total msgs": m.messages,
            "bytes": m.bytes,
        }
        for name, m in results.items()
    ]
    save_and_print(results_dir, "ablation_packing",
                   format_table(rows, title="migration message packing"))
    rips, rand = results["RIPS (packed)"], results["random (per-task)"]
    # random sends exactly one task per message; RIPS packs several
    assert rand.extra["packing_ratio"] == pytest.approx(1.0)
    assert rips.extra["packing_ratio"] > 1.5


def test_ablation_detection_cost(benchmark, results_dir, trace):
    """ANY's init broadcasts vs ALL's ready tree: message counts."""

    def run_pair():
        return {
            "ANY (eureka broadcast)": _run(trace, RIPS("eager", "any")),
            "ALL (ready tree)": _run(trace, RIPS("eager", "all")),
        }

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    rows = [
        {
            "policy": name,
            "messages": m.messages,
            "phases": m.system_phases,
            "msgs/phase": f"{m.messages / max(m.system_phases, 1):.0f}",
            "T(ms)": f"{m.T * 1e3:.1f}",
        }
        for name, m in results.items()
    ]
    save_and_print(results_dir, "ablation_detection",
                   format_table(rows, title="phase detection cost"))
    # the ready tree uses at most one message per node per phase; the
    # eureka/broadcast approach floods and must cost more per phase
    any_, all_ = results["ANY (eureka broadcast)"], results["ALL (ready tree)"]
    assert all_.messages / max(all_.system_phases, 1) < \
        any_.messages / max(any_.system_phases, 1) * 2
