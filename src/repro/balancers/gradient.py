"""The gradient model (Lin & Keller), one of the paper's comparisons.

Every node is *light* when its load is at or below ``low_mark``.  Each
node maintains a **proximity**: its distance to the nearest light node,
computed relaxation-style from its neighbors —

    proximity(i) = 0                         if i is light
                   min_j proximity(j) + 1    over neighbors j, capped at
                                             w_max (the network diameter)

Proximity changes propagate to neighbors.  An overloaded node (load
above ``high_mark``) that sees a neighbor with proximity below the cap
sends one task down the gradient — one hop at a time, toward, not
directly to, the nearest light node.  This hop-by-hop spreading is why
the paper finds the gradient model slow to disperse deep imbalance
("the load is spread slowly"): a task crosses one scheduling decision
per hop, and the proximity map is always slightly stale.
"""

from __future__ import annotations

from typing import Sequence

from repro.balancers.base import RunMetrics, Strategy
from repro.machine import Message

__all__ = ["GradientModel"]


class GradientModel(Strategy):
    """Gradient-model load balancing."""

    name = "gradient"

    def __init__(self, low_mark: int = 2, high_mark: int = 8) -> None:
        super().__init__()
        if low_mark < 0 or high_mark <= low_mark:
            raise ValueError("need 0 <= low_mark < high_mark")
        self.low_mark = low_mark
        self.high_mark = high_mark
        self.proximity_updates = 0

    # ------------------------------------------------------------------
    def attach(self, driver) -> None:
        super().attach(driver)
        machine = self.machine
        n = machine.num_nodes
        self.cap = max(machine.topology.diameter(), 1)
        #: own proximity per node
        self.prox = [0] * n
        #: neighbor proximity estimates: {neighbor: proximity}.  Links
        #: exist only between current members: a standby neighbor must
        #: not advertise proximity 0 and attract tasks onto a disabled
        #: worker (is_member is identically True without elasticity).
        faults = machine.faults
        member = faults.is_member if faults is not None else (lambda r: True)
        self.nbr_prox = [
            {j: 0 for j in machine.topology.neighbors(r) if member(j)}
            if member(r) else {}
            for r in range(n)
        ]
        self._emitting = [False] * n
        for node in machine.nodes:
            node.on("grad.prox", self._on_prox)
        # initial proximities are consistent: everyone starts light

    # ------------------------------------------------------------------
    # load-event hooks
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
    def _is_light(self, rank: int) -> bool:
        return self.worker(rank).load <= self.low_mark

    def _my_proximity(self, rank: int) -> int:
        if self._is_light(rank):
            return 0
        nbrs = self.nbr_prox[rank]
        best = min(nbrs.values(), default=self.cap)
        return min(best + 1, self.cap)

    def _load_changed(self, rank: int) -> None:
        self._refresh_proximity(rank)
        self._maybe_emit(rank)

    def _refresh_proximity(self, rank: int) -> None:
        new = self._my_proximity(rank)
        if new != self.prox[rank]:
            self.prox[rank] = new
            self.proximity_updates += 1
            node = self.machine.node(rank)
            for j in self.nbr_prox[rank]:
                node.send(j, "grad.prox", (rank, new))

    def _on_prox(self, msg: Message) -> None:
        rank = msg.dest
        src, prox = msg.payload
        if src not in self.nbr_prox[rank]:
            return  # stale update from a neighbor that has fail-stopped
        self.nbr_prox[rank][src] = prox
        self._refresh_proximity(rank)
        self._maybe_emit(rank)

    # ------------------------------------------------------------------
    def _maybe_emit(self, rank: int) -> None:
        """Send at most one task down the gradient per decision point.

        One task per event is the defining trait of the gradient model
        (and the reason the paper finds it spreads load slowly): each
        migration is an independent decision against the current — and
        always slightly stale — proximity map.
        """
        if self._emitting[rank]:
            return
        self._emitting[rank] = True
        try:
            w = self.worker(rank)
            if w.load <= self.high_mark:
                return
            nbrs = self.nbr_prox[rank]
            if not nbrs:
                return
            dest, best = min(nbrs.items(), key=lambda kv: (kv[1], kv[0]))
            if best >= self.cap:
                return  # no light node in sight
            taken = w.take(1)
            if not taken:
                return
            tid = taken[0]
            if self.driver.trace.task(tid).pinned is not None:
                w.enqueue(tid, front=True)  # pinned tasks never migrate
                return
            self.send_tasks(rank, dest, [tid])
            self._refresh_proximity(rank)
        finally:
            self._emitting[rank] = False

    def on_node_removed(self, node: int) -> list[int]:
        self.nbr_prox[node].clear()
        for rank in self.machine.alive_ranks():
            if self.nbr_prox[rank].pop(node, None) is not None:
                self._refresh_proximity(rank)
        return []

    def on_node_added(self, node: int) -> None:
        """Link the joined or rejoined node with its usable neighbors and
        let proximity re-propagate from fresh (optimistic zero)
        estimates."""
        machine = self.machine
        usable = set(machine.alive_ranks())
        self.nbr_prox[node] = {
            j: 0 for j in machine.topology.neighbors(node) if j in usable}
        for j in self.nbr_prox[node]:
            self.nbr_prox[j][node] = 0
            self._refresh_proximity(j)
        self._refresh_proximity(node)

    def finalize_metrics(self, metrics: RunMetrics) -> None:
        metrics.extra["proximity_updates"] = self.proximity_updates
