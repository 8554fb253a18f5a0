"""Static prescheduling — the one-shot ancestor of RIPS.

Section 4 of the paper relates RIPS to *prescheduling* (Fox et al.):
balance the load once, up front, with global information — then never
again.  This strategy does exactly that: it holds the wave-0 roots, runs
one system phase with the same planner RIPS would use (MWA on a mesh),
distributes the tasks, and from then on lets everything run where it
lands (children execute on the node that spawned them).

It is the ablation that isolates the **incremental** part of RIPS:
identical initial quality, zero corrective capability.  On workloads
with unpredictable spawning (N-Queens) or grain-size variation (GROMOS)
it degrades exactly the way the paper argues static methods must, while
on perfectly uniform workloads it matches RIPS at lower overhead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.balancers.base import RunMetrics, Strategy
from repro.core.schedulers import Planner, default_planner, greedy_subset_plan
from repro.machine import Message

__all__ = ["StaticPreschedule"]


class StaticPreschedule(Strategy):
    """One global balancing pass at start-up, then nothing."""

    name = "static"

    def __init__(self, planner: Optional[Planner] = None) -> None:
        super().__init__()
        self._planner = planner
        self.plan_cost = 0

    def attach(self, driver) -> None:
        super().attach(driver)
        if self._planner is None:
            self._planner = default_planner(self.machine.topology)
        self._pools: list[list[int]] = [[] for _ in range(self.machine.num_nodes)]
        self._kickoff_scheduled = False
        for node in self.machine.nodes:
            node.on("static.plan", self._on_plan)

    # ------------------------------------------------------------------
    def place_root(self, node: int, task: int) -> None:
        if self.driver.trace.task(task).pinned is not None:
            w = self.worker(node)
            w.enqueue(task)
            w.try_start()
            return
        self._pools[node].append(task)
        if not self._kickoff_scheduled:
            self._kickoff_scheduled = True
            # driver.start() materializes every root synchronously before
            # the clock runs; plan once everything is pooled
            self.machine.sim.schedule(0.0, self._plan_and_distribute)

    # children just run where they were spawned: place_child default.

    def _plan_and_distribute(self) -> None:
        machine = self.machine
        loads = np.array([len(p) for p in self._pools], dtype=np.int64)
        ranks = list(range(machine.num_nodes))
        faults = machine.faults
        if faults is not None and faults.membership is not None:
            # elastic mesh: standby ranks must get no quota (their workers
            # are disabled), so plan over the current members with the
            # subset fallback instead of the full-lattice planner
            ranks = machine.alive_ranks()
        if len(ranks) < machine.num_nodes:
            plan = greedy_subset_plan(machine.topology, loads, ranks)
        else:
            plan = self._planner.plan(loads)
        self.plan_cost = plan.cost
        # Realized as on the real machine: the runtime tells each node its
        # transfer list; nodes ship packed task messages.  (We skip the
        # load gather here — prescheduling typically knows the initial
        # decomposition centrally, which is also why it cannot adapt.)
        for rank in ranks:
            outgoing = plan.outgoing(rank)
            node = machine.node(rank)
            node.send(rank, "static.plan", outgoing, size=32 + 12 * len(outgoing))

    def _on_plan(self, msg: Message) -> None:
        rank = msg.dest
        pool = self._pools[rank]
        for dest, count in msg.payload:
            batch = pool[:count]
            del pool[:count]
            self.send_tasks(rank, dest, batch)
        w = self.worker(rank)
        for tid in pool:
            w.enqueue(tid)
        self._pools[rank] = []
        w.try_start()

    def on_node_removed(self, node: int) -> list[int]:
        """Hand back anything still pooled (a crash or leave can race the
        t=0 plan message); static has no other per-node state to
        migrate."""
        handed = list(self._pools[node])
        self._pools[node] = []
        return handed

    # ------------------------------------------------------------------
    def finalize_metrics(self, metrics: RunMetrics) -> None:
        metrics.system_phases = 1
        metrics.extra["plan_cost_total"] = self.plan_cost
