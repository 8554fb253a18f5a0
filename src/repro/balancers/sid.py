"""Sender-Initiated Diffusion (SID) — extension baseline.

The mirror image of RID (Eager, Lazowska & Zahorjan compare the two
regimes; Willebeek-LeMair & Reeves define the diffusion variant): a node
whose load climbs above ``l_high`` pushes surplus tasks to the
underloaded part of its neighborhood, proportionally to each neighbor's
deficit against the neighborhood average.  Sender-initiated schemes do
well in lightly loaded systems and saturate in heavily loaded ones —
the opposite profile of RID.  Table I does not include it and no
benchmark constructs it; it is a library strategy
(``repro.SenderInitiatedDiffusion``) exercised by the tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.balancers.base import RunMetrics, Strategy
from repro.machine import Message

__all__ = ["SenderInitiatedDiffusion"]


class SenderInitiatedDiffusion(Strategy):
    """SID with the same estimate/update machinery as RID."""

    name = "SID"

    def __init__(self, l_high: int = 4, update_factor: float = 0.4) -> None:
        super().__init__()
        if l_high < 1:
            raise ValueError("l_high must be >= 1")
        if not 0.0 < update_factor <= 1.0:
            raise ValueError("update_factor must be in (0, 1]")
        self.l_high = l_high
        self.update_factor = update_factor
        self.load_updates = 0
        self.pushes = 0

    # ------------------------------------------------------------------
    def attach(self, driver) -> None:
        super().attach(driver)
        machine = self.machine
        n = machine.num_nodes
        # Estimate links exist only between current members: pushing into
        # a standby neighbor's phantom load-0 slot would strand tasks on a
        # disabled worker (is_member is identically True without
        # elasticity).
        faults = machine.faults
        member = faults.is_member if faults is not None else (lambda r: True)
        self.nbr_load = [
            {j: 0 for j in machine.topology.neighbors(r) if member(j)}
            if member(r) else {}
            for r in range(n)
        ]
        self.last_broadcast = [0] * n
        self._pushing = [False] * n
        for node in machine.nodes:
            node.on("sid.load", self._on_load_update)

    # ------------------------------------------------------------------
    def place_root(self, node: int, task: int) -> None:
        super().place_root(node, task)
        self._load_changed(node)

    def place_child(self, node: int, task: int) -> None:
        super().place_child(node, task)
        self._load_changed(node)

    def on_task_complete(self, node: int, task: int) -> None:
        self._load_changed(node)

    def on_tasks_received(self, node: int, tasks: Sequence[int]) -> None:
        self._load_changed(node)

    # ------------------------------------------------------------------
    def _load_changed(self, rank: int) -> None:
        import math

        load = self.worker(rank).load
        last = self.last_broadcast[rank]
        threshold = max(1, math.ceil((1.0 - self.update_factor) * max(last, 1)))
        if abs(load - last) >= threshold:
            self.last_broadcast[rank] = load
            self.load_updates += 1
            node = self.machine.node(rank)
            for j in self.nbr_load[rank]:
                node.send(j, "sid.load", (rank, load))
        self._maybe_push(rank)

    def _on_load_update(self, msg: Message) -> None:
        rank = msg.dest
        src, load = msg.payload
        if src not in self.nbr_load[rank]:
            return  # stale update from an ex-neighbor (failed or departed)
        self.nbr_load[rank][src] = load
        self._maybe_push(rank)

    # ------------------------------------------------------------------
    def _maybe_push(self, rank: int) -> None:
        if self._pushing[rank]:
            return
        self._pushing[rank] = True
        try:
            w = self.worker(rank)
            if w.load <= self.l_high:
                return
            nbrs = self.nbr_load[rank]
            if not nbrs:
                return
            avg = (w.load + sum(nbrs.values())) / (1 + len(nbrs))
            surplus = w.load - avg
            if surplus < 1:
                return
            receivers = {j: avg - l for j, l in nbrs.items() if avg - l > 0}
            if not receivers:
                return
            total_deficit = sum(receivers.values())
            trace = self.driver.trace
            for j, deficit in receivers.items():
                quota = int(min(surplus * deficit / total_deficit,
                                max(0.0, deficit)))
                batch: list[int] = []
                while len(batch) < quota:
                    taken = w.take(1)
                    if not taken:
                        break
                    if trace.task(taken[0]).pinned is not None:
                        w.enqueue(taken[0], front=True)
                        break
                    batch.append(taken[0])
                if batch:
                    self.pushes += 1
                    self.nbr_load[rank][j] += len(batch)
                    self.send_tasks(rank, j, batch)
            self.last_broadcast[rank] = w.load
        finally:
            self._pushing[rank] = False

    # ------------------------------------------------------------------
    # nodes leaving and entering the usable set: edit the estimate links
    # directly so diffusion never targets a removed node
    # ------------------------------------------------------------------
    def on_node_added(self, node: int) -> None:
        machine = self.machine
        usable = set(machine.alive_ranks())
        self.nbr_load[node] = {
            j: 0 for j in machine.topology.neighbors(node) if j in usable}
        for j in self.nbr_load[node]:
            self.nbr_load[j][node] = 0
        self._load_changed(node)

    def on_node_removed(self, node: int) -> list[int]:
        self.nbr_load[node].clear()
        for views in self.nbr_load:
            views.pop(node, None)
        return []

    # ------------------------------------------------------------------
    def finalize_metrics(self, metrics: RunMetrics) -> None:
        metrics.extra["load_updates"] = self.load_updates
        metrics.extra["pushes"] = self.pushes
