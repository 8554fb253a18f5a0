#!/usr/bin/env python
"""The Section-5 overhead anatomy: where RIPS's time goes.

The paper dissects a 15-Queens run on 32 processors: 8 system phases,
~1000 non-local tasks packed into migration messages, about 12 ms of
migration per phase, ~96 ms total migration out of ~510 ms system
overhead, ~30 ms idle, 10.9 s execution, 95% efficiency.

This example reproduces that dissection on our simulated machine.  By
default it uses 13-Queens (a few seconds end-to-end); pass ``--full``
for the 15-Queens numbers (first run solves 15-queens for real, ~1
minute, then caches).

Run:  python examples/overhead_anatomy.py [--full]
"""

import argparse

from repro import MeshTopology, RIPS, Session
from repro.apps import nqueens_trace


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="use 15-queens (the paper's instance)")
    args = parser.parse_args()

    n = 15 if args.full else 13
    trace = nqueens_trace(n, split_depth=4)
    sess = Session(trace, topology=MeshTopology(8, 4),
                   strategy=RIPS("lazy", "any"), seed=2026)
    metrics = sess.run()
    machine = sess.machine

    phases = metrics.system_phases
    nonlocal_tasks = metrics.nonlocal_tasks
    task_msgs = metrics.extra["task_messages"]
    lat = machine.latency
    # migration wire+endpoint cost, reconstructed from the network stats
    stats = machine.network.stats
    per_msg_cpu = 2 * lat.software_overhead
    migration_cpu = task_msgs * per_msg_cpu + stats.bytes * lat.per_byte_cpu * 2

    print(f"{n}-Queens under RIPS (ANY-Lazy) on an 8x4 mesh")
    print(f"  execution time T        : {metrics.T:8.2f} s")
    print(f"  efficiency              : {metrics.efficiency:8.1%}"
          f"   (speedup {metrics.speedup:.1f}x on 32 nodes)")
    print(f"  system phases           : {phases:8d}")
    print(f"  non-local tasks         : {nonlocal_tasks:8d}"
          f"   ({nonlocal_tasks / max(phases,1):.0f} per phase)")
    print(f"  migration messages      : {task_msgs:8d}"
          f"   (packing {metrics.extra['packing_ratio']:.1f} tasks/message)")
    print(f"  per-node overhead Th    : {metrics.Th*1e3:8.1f} ms")
    print(f"  per-node idle Ti        : {metrics.Ti*1e3:8.1f} ms")
    print(f"  est. migration CPU      : {migration_cpu/32*1e3:8.1f} ms/node"
          f"   (the paper: migration is a small fraction of overhead)")
    print()
    print("paper reference (15-Queens): 8 phases, ~1000 non-local tasks,")
    print("~96 ms migration of ~510 ms overhead, ~30 ms idle, T=10.9 s, 95%")


if __name__ == "__main__":
    main()
