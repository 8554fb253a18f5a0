#!/usr/bin/env python
"""Parallel IDA* search: iteration barriers and low parallelism.

Reproduces the paper's observation that IDA* is the hardest of the
three applications for every load balancer: each deepening iteration is
a global synchronization, the iteration driver is sequential (pinned to
rank 0), and early iterations have little work to spread.

Prints per-strategy results and the per-iteration structure of the
search.

Run:  python examples/parallel_search.py
"""

from collections import Counter

from repro import MeshTopology, RandomAllocation, RIPS, Session
from repro.apps import idastar_trace
from repro.apps.idastar import IDAStarConfig
from repro.metrics import format_table
from repro.optimal import optimal_efficiency


def main() -> None:
    # the paper's config #1 instance (cached after the first run)
    config = IDAStarConfig(walk_steps=56, seed=23, split_budget=400)
    trace = idastar_trace(config)
    print(f"workload: {trace}")
    print(f"  {trace.description}\n")

    per_wave = Counter(t.wave for t in trace)
    work_per_wave = Counter()
    for t in trace:
        work_per_wave[t.wave] += t.work
    rows = [
        {
            "iteration": w,
            "tasks": per_wave[w],
            "work share": f"{work_per_wave[w] / sum(work_per_wave.values()):.1%}",
        }
        for w in sorted(per_wave)
    ]
    print(format_table(rows, title="iteration structure (note the tiny early iterations)"))

    n_nodes = 16
    print(
        f"\noptimal efficiency on {n_nodes} nodes "
        f"(granularity + barrier bound): "
        f"{optimal_efficiency(trace, n_nodes):.1%}\n"
    )

    rows = []
    for strategy in (RandomAllocation(), RIPS("lazy", "any")):
        m = Session(trace, topology=MeshTopology(4, 4), strategy=strategy, seed=11).run()
        rows.append(
            {
                "strategy": m.strategy,
                "T (s)": f"{m.T:.3f}",
                "efficiency": f"{m.efficiency:.1%}",
                "speedup": f"{m.speedup:.1f}x",
                "nonlocal": m.nonlocal_tasks,
            }
        )
    print(format_table(rows, title=f"IDA* on {n_nodes} nodes"))


if __name__ == "__main__":
    main()
