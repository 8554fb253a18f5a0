"""Receiver-Initiated Diffusion (RID) — Willebeek-LeMair & Reeves.

The third comparison strategy of Table I.  Every node keeps *estimates*
of its neighbors' loads, refreshed by explicit load-update messages.
Balancing is receiver-initiated: when a node's load drops below
``l_low`` it requests work from its neighborhood — each neighbor whose
estimated load exceeds the local neighborhood average by more than
``l_threshold`` is asked for a share of the deficit, proportional to its
excess.  A grantor ships at most half of its lead over the requester,
so the exchange cannot invert the imbalance.

The paper tunes three parameters on 32 processors: ``l_low = 2``,
``l_threshold = 1``, and the load-update factor ``u = 0.4`` (0.7 for
IDA* on large machines).  ``u`` controls update frequency: a node
re-broadcasts its load when it has drifted by at least a fraction
``(1 - u)`` since the last broadcast — so ``u = 0.9`` updates on every
~10% drift (the "too frequent" setting the paper rejects) while
``u = 0.4`` waits for a 60% drift.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.balancers.base import RunMetrics, Strategy
from repro.machine import Message

__all__ = ["ReceiverInitiatedDiffusion"]


class ReceiverInitiatedDiffusion(Strategy):
    """RID with the paper's parameterization."""

    name = "RID"

    def __init__(
        self,
        l_low: int = 2,
        l_threshold: int = 1,
        update_factor: float = 0.4,
    ) -> None:
        super().__init__()
        if l_low < 1:
            raise ValueError("l_low must be >= 1")
        if l_threshold < 0:
            raise ValueError("l_threshold must be >= 0")
        if not 0.0 < update_factor <= 1.0:
            raise ValueError("update_factor must be in (0, 1]")
        self.l_low = l_low
        self.l_threshold = l_threshold
        self.update_factor = update_factor
        self.load_updates = 0
        self.requests = 0
        self.grants = 0

    # ------------------------------------------------------------------
    def attach(self, driver) -> None:
        super().attach(driver)
        machine = self.machine
        n = machine.num_nodes
        # Estimate links exist only between current members: a standby
        # neighbor's phantom load-0 entry would attract request rounds at
        # a node whose worker is disabled (is_member is identically True
        # without elasticity).
        faults = machine.faults
        member = faults.is_member if faults is not None else (lambda r: True)
        self.nbr_load = [
            {j: 0 for j in machine.topology.neighbors(r) if member(j)}
            if member(r) else {}
            for r in range(n)
        ]
        self.last_broadcast = [0] * n
        self.requesting = [False] * n  # one outstanding request round
        for node in machine.nodes:
            node.on("rid.load", self._on_load_update)
            node.on("rid.request", self._on_request)

    # ------------------------------------------------------------------
    # load events
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
        self.requesting[node] = False
        self._load_changed(node)

    def on_idle(self, node: int) -> None:
        self._maybe_request(node)

    # ------------------------------------------------------------------
    def _load_changed(self, rank: int) -> None:
        load = self.worker(rank).load
        last = self.last_broadcast[rank]
        drift = abs(load - last)
        threshold = max(1, math.ceil((1.0 - self.update_factor) * max(last, 1)))
        if drift >= threshold:
            self.last_broadcast[rank] = load
            self.load_updates += 1
            node = self.machine.node(rank)
            for j in self.nbr_load[rank]:
                node.send(j, "rid.load", (rank, load))
        self._maybe_request(rank)

    def _on_load_update(self, msg: Message) -> None:
        rank = msg.dest
        src, load = msg.payload
        if src not in self.nbr_load[rank]:
            return  # stale update from a neighbor that has fail-stopped
        self.nbr_load[rank][src] = load
        # fresh information unblocks a requester whose last round got
        # nothing (all grants may legitimately be zero)
        self.requesting[rank] = False
        self._maybe_request(rank)

    # ------------------------------------------------------------------
    def _maybe_request(self, rank: int) -> None:
        w = self.worker(rank)
        if w.load >= self.l_low or self.requesting[rank]:
            return
        nbrs = self.nbr_load[rank]
        if not nbrs:
            return
        avg = (w.load + sum(nbrs.values())) / (1 + len(nbrs))
        deficit = avg - w.load
        if deficit <= self.l_threshold:
            return
        donors = {j: l - avg for j, l in nbrs.items() if l - avg > self.l_threshold}
        if not donors:
            return
        total_excess = sum(donors.values())
        node = self.machine.node(rank)
        sent_any = False
        for j, excess in donors.items():
            share = max(1, round(deficit * excess / total_excess))
            node.send(j, "rid.request", (rank, w.load, share))
            sent_any = True
        if sent_any:
            self.requesting[rank] = True
            self.requests += 1

    def _on_request(self, msg: Message) -> None:
        rank = msg.dest
        requester, requester_load, share = msg.payload
        req_node = self.machine.nodes[requester]
        if req_node.crashed or req_node.membership != "member":
            return  # stale request; granting would only bounce the tasks
        w = self.worker(rank)
        # Grant at most half of our lead over the requester: exchanges can
        # shrink but never invert the imbalance.
        lead = w.load - requester_load
        grant = min(share, max(0, lead // 2))
        batch: list[int] = []
        trace = self.driver.trace
        while len(batch) < grant:
            taken = w.take(1)
            if not taken:
                break
            if trace.task(taken[0]).pinned is not None:
                w.enqueue(taken[0], front=True)
                break
            batch.append(taken[0])
        if batch:
            self.grants += 1
            self.send_tasks(rank, requester, batch)
            self._load_changed(rank)
        # A zero grant is silent: the requester's `requesting` flag clears
        # when any tasks arrive, or on its next load change re-evaluation.

    # ------------------------------------------------------------------
    def on_node_removed(self, node: int) -> list[int]:
        self.nbr_load[node].clear()
        for rank in self.machine.alive_ranks():
            self.nbr_load[rank].pop(node, None)
            # a requester whose only pending donor died would otherwise
            # wait forever for tasks that can no longer arrive
            self.requesting[rank] = False
        return []

    def on_node_added(self, node: int) -> None:
        """Link the joined or rejoined node with its usable neighbors;
        its next load change (or theirs) refreshes the estimates."""
        machine = self.machine
        usable = set(machine.alive_ranks())
        self.nbr_load[node] = {
            j: 0 for j in machine.topology.neighbors(node) if j in usable}
        for j in self.nbr_load[node]:
            self.nbr_load[j][node] = 0
        self.requesting[node] = False
        self._load_changed(node)

    # ------------------------------------------------------------------
    def finalize_metrics(self, metrics: RunMetrics) -> None:
        metrics.extra["load_updates"] = self.load_updates
        metrics.extra["requests"] = self.requests
        metrics.extra["grants"] = self.grants
