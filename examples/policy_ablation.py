#!/usr/bin/env python
"""Ablation: the four RIPS policy combinations, plus planner choices.

Section 2 of the paper states that ANY-Lazy "has shown to be the best
of all four combinations".  This example reruns the same workload under
eager/lazy x ALL/ANY, and additionally swaps the Mesh Walking Algorithm
for the min-cost-flow optimal planner to show MWA gives up almost
nothing while being a realistic runtime algorithm.

Run:  python examples/policy_ablation.py
"""

from repro import MeshTopology, RIPS, Session
from repro.core.schedulers import OptimalPlanner
from repro.apps import nqueens_trace
from repro.metrics import format_table


def main() -> None:
    trace = nqueens_trace(11, split_depth=3)
    print(f"workload: {trace}\n")
    mesh = MeshTopology(4, 4)

    rows = []
    for local in ("lazy", "eager"):
        for global_ in ("any", "all"):
            m = Session(trace, topology=mesh, strategy=RIPS(local, global_),
                        seed=31).run()
            rows.append(
                {
                    "policy": f"{global_.upper()}-{local.capitalize()}",
                    "T (ms)": f"{m.T * 1e3:.1f}",
                    "Th (ms)": f"{m.Th * 1e3:.2f}",
                    "Ti (ms)": f"{m.Ti * 1e3:.2f}",
                    "efficiency": f"{m.efficiency:.1%}",
                    "phases": m.system_phases,
                    "migrated": m.extra["migrated_tasks"],
                }
            )
    print(format_table(rows, title="RIPS policy ablation (11-queens, 4x4 mesh)"))

    rows = []
    for label, planner in (
        ("MWA (paper)", None),
        ("min-cost flow (oracle)", OptimalPlanner(mesh)),
    ):
        m = Session(trace, topology=mesh,
                    strategy=RIPS("lazy", "any", planner=planner), seed=31).run()
        rows.append(
            {
                "planner": label,
                "T (ms)": f"{m.T * 1e3:.1f}",
                "efficiency": f"{m.efficiency:.1%}",
                "plan cost (task-hops)": m.extra["plan_cost_total"],
            }
        )
    print()
    print(format_table(rows, title="system-phase planner ablation (ANY-Lazy)"))


if __name__ == "__main__":
    main()
