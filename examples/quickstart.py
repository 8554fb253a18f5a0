#!/usr/bin/env python
"""Quickstart: schedule an irregular search workload with RIPS.

Builds a real 11-Queens task tree, runs it on a simulated 4x4-mesh
multicomputer under RIPS (ANY-Lazy, the paper's best policy), and
prints the Table-I style metrics next to a randomized-allocation run of
the same workload.

Run:  python examples/quickstart.py
"""

from repro import MeshTopology, RandomAllocation, RIPS, Session
from repro.apps import nqueens_trace


def main() -> None:
    # 1. The workload: the exhaustive 11-queens search, split into
    #    independent subtree tasks at depth 3 (generated by actually
    #    solving the problem; disk-cached afterwards).
    trace = nqueens_trace(11, split_depth=3)
    print(f"workload: {trace}")
    print(f"  {trace.description}")

    # 2. Run it under RIPS and under the randomized-allocation baseline,
    #    each on a fresh 4x4 mesh with Paragon-like communication costs.
    for strategy in (RIPS("lazy", "any"), RandomAllocation()):
        metrics = Session(trace, topology=MeshTopology(4, 4),
                          strategy=strategy, seed=2026).run()
        print(
            f"\n{metrics.strategy}:"
            f"\n  execution time T  = {metrics.T * 1e3:8.2f} ms"
            f"\n  overhead Th       = {metrics.Th * 1e3:8.2f} ms/node"
            f"\n  idle Ti           = {metrics.Ti * 1e3:8.2f} ms/node"
            f"\n  efficiency        = {metrics.efficiency:8.1%}"
            f"\n  speedup           = {metrics.speedup:8.1f}x on 16 nodes"
            f"\n  non-local tasks   = {metrics.nonlocal_tasks}"
            f" / {metrics.num_tasks}"
            + (
                f"\n  system phases     = {metrics.system_phases}"
                if metrics.system_phases
                else ""
            )
        )


if __name__ == "__main__":
    main()
