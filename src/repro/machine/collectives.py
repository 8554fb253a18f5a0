"""Collective-communication protocols over the simulated machine.

RIPS needs three collectives (Section 2 of the paper):

* a **ready-signal / gather tree** for the ALL policy and for collecting
  per-node load counts into a system phase;
* a **broadcast** for the init signal (ANY policy) and for spreading
  ``wavg``/quota information;
* an **or-barrier** (the Cray T3D "eureka") — here realized as a
  broadcast from the first node whose condition fires, with phase-index
  de-duplication done by the caller.

These are real message protocols on the DES: every signal is a message
with hop-accurate latency and per-message software overhead, so the
overhead column Th of Table I includes detection costs, exactly as the
paper's measurements do.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Optional

from .machine import Machine
from .message import HEADER_BYTES, Message
from .topology import Topology

__all__ = [
    "GatherTree",
    "BinomialBroadcast",
    "modeled_barrier_latency",
    "survivor_tree",
]


def survivor_tree(
    topology: Topology, alive: Iterable[int], root: int
) -> tuple[list[int], list[list[int]]]:
    """Spanning tree of the ``alive`` ranks, rooted at ``root``.

    BFS over the topology restricted to surviving nodes.  A survivor that
    the induced subgraph cannot reach (the dead nodes disconnect it) is
    attached directly to the root: on a wormhole machine the routers of a
    fail-stopped node keep forwarding, only its processor is gone, so the
    link exists — it is just not neighbor-local anymore.

    Returns full-length ``(parent, children)`` arrays: ``parent[root] ==
    -1``, ``parent[r] == -2`` for non-participating (dead) ranks.
    """
    alive_set = set(alive)
    if root not in alive_set:
        raise ValueError(f"root {root} is not alive")
    n = topology.num_nodes
    parent = [-2] * n
    children: list[list[int]] = [[] for _ in range(n)]
    parent[root] = -1
    frontier = deque([root])
    seen = {root}
    while frontier:
        cur = frontier.popleft()
        for nb in topology.neighbors(cur):
            if nb in alive_set and nb not in seen:
                seen.add(nb)
                parent[nb] = cur
                children[cur].append(nb)
                frontier.append(nb)
    for r in sorted(alive_set - seen):
        parent[r] = root
        children[root].append(r)
    return parent, children


class GatherTree:
    """Repeated-round reduction to a root over the topology spanning tree.

    Every node eventually calls :meth:`contribute` once per round; interior
    nodes forward the combined value of their subtree to their parent once
    all children (and they themselves) have contributed.  The root invokes
    ``on_result(round_id, combined)``.

    ``combine(a, b) -> c`` must be associative; contributions within a
    subtree are combined in a deterministic order.
    """

    def __init__(
        self,
        machine: Machine,
        kind: str,
        combine: Callable[[Any, Any], Any],
        on_result: Callable[[int, Any], None],
        root: int = 0,
        payload_bytes: int = HEADER_BYTES,
        reliable: bool = True,
    ) -> None:
        self.machine = machine
        self.kind = kind
        self.combine = combine
        self.on_result = on_result
        self.root = root
        self.payload_bytes = payload_bytes
        #: reliable is a no-op on a fault-free machine (see Node.send), so
        #: the default hardens every gather without changing clean runs.
        self.reliable = reliable
        self.parent, self.children = machine.topology.spanning_tree(root)
        n = machine.num_nodes
        # per-node, per-round accumulation: {round: [count, value]}
        self._acc: list[dict[int, list]] = [dict() for _ in range(n)]
        self._expected = [len(self.children[r]) + 1 for r in range(n)]
        #: rounds below this id are silently discarded (stale traffic from
        #: rounds abandoned at a crash; see :meth:`discard_rounds_below`).
        self._min_round = 0
        for node in machine.nodes:
            node.on(kind, self._on_message)

    # ------------------------------------------------------------------
    def rebuild_groups(
        self,
        groups: Iterable[Iterable[int]],
        roots: Optional[Iterable[Optional[int]]] = None,
    ) -> None:
        """Rebuild as a *forest*: one independent reduction per group.

        Used while the machine is partitioned or the membership epoch
        changes — each reachability component gathers to its own root,
        detected by ``parent[rank] == -1``, and runs system phases
        locally.  By default a group roots at its smallest rank;
        ``roots`` overrides per group (an *elected* root need not be the
        minimum — None entries keep the default).  It discards every
        partially-accumulated round: contributions from a round started
        under the old tree shape would be combined against the wrong
        ``_expected`` counts, so the protocol must abandon in-flight
        rounds and start a fresh one.
        """
        n = self.machine.num_nodes
        parent = [-2] * n
        children: list[list[int]] = [[] for _ in range(n)]
        wanted = list(roots) if roots is not None else []
        chosen = []
        for gi, group in enumerate(groups):
            group = sorted(group)
            g_root = wanted[gi] if gi < len(wanted) else None
            if g_root is None or g_root not in group:
                g_root = group[0]
            g_parent, g_children = survivor_tree(
                self.machine.topology, group, g_root)
            chosen.append(g_root)
            for r in group:
                parent[r] = g_parent[r]
                children[r] = g_children[r]
        self.parent, self.children = parent, children
        self.root = chosen[0]
        self._acc = [dict() for _ in range(n)]
        self._expected = [len(self.children[r]) + 1 for r in range(n)]

    def contribute(self, rank: int, round_id: int, value: Any) -> None:
        """Node ``rank`` contributes its local value for ``round_id``."""
        self._absorb(rank, round_id, value)

    def _on_message(self, msg: Message) -> None:
        round_id, value = msg.payload
        self._absorb(msg.dest, round_id, value)

    def discard_rounds_below(self, round_id: int) -> None:
        """Ignore all traffic for rounds ``< round_id`` from now on.

        After a crash forces the tree to be rebuilt, contributions from
        abandoned rounds may still be in flight (or retransmitted); counted
        against the new tree shape they would corrupt — or over-run — the
        accumulators, so the caller declares them stale wholesale.
        """
        self._min_round = max(self._min_round, round_id)
        for acc in self._acc:
            for rid in [r for r in acc if r < self._min_round]:
                del acc[rid]

    def _absorb(self, rank: int, round_id: int, value: Any) -> None:
        if round_id < self._min_round:
            return
        if self.parent[rank] == -2:
            # rank is outside the current forest (departed, standby, or
            # cut off by an epoch rebuild that didn't abandon a round) —
            # its contributions are stale by definition, and completing a
            # slot here would forward to the -2 sentinel.
            return
        acc = self._acc[rank]
        slot = acc.get(round_id)
        if slot is None:
            slot = acc[round_id] = [0, None]
        slot[0] += 1
        slot[1] = value if slot[0] == 1 else self.combine(slot[1], value)
        if slot[0] > self._expected[rank]:  # pragma: no cover - defensive
            raise RuntimeError(f"over-contribution at node {rank}, round {round_id}")
        if slot[0] == self._expected[rank]:
            del acc[round_id]
            if self.parent[rank] == -1:  # a (forest) root
                self.on_result(round_id, slot[1])
            else:
                self.machine.node(rank).send(
                    self.parent[rank], self.kind, (round_id, slot[1]),
                    size=self.payload_bytes, reliable=self.reliable,
                )


class BinomialBroadcast:
    """One-to-all broadcast along a binomial tree rooted at any rank.

    Depth is ``ceil(log2 N)`` message steps — this is the fast init
    broadcast of the ANY policy.  ``on_receive(rank, payload)`` fires at
    every rank *including the root* (so callers have one code path).
    """

    def __init__(
        self,
        machine: Machine,
        kind: str,
        on_receive: Callable[[int, Any], None],
        payload_bytes: int = HEADER_BYTES,
        reliable: bool = True,
    ) -> None:
        self.machine = machine
        self.kind = kind
        self.on_receive = on_receive
        self.payload_bytes = payload_bytes
        #: no-op on a fault-free machine (see Node.send).
        self.reliable = reliable
        self.set_ranks(range(machine.num_nodes))
        for node in machine.nodes:
            node.on(kind, self._on_message)

    # ------------------------------------------------------------------
    def set_ranks(self, ranks: Iterable[int]) -> None:
        """Restrict the broadcast to ``ranks`` (e.g. crash survivors).

        The binomial tree is computed over positions in the sorted rank
        list, so with the full rank set this is exactly the classic
        ``(rank - root) mod n`` construction.
        """
        self.set_groups([ranks])

    def set_groups(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition the broadcast into independent groups (a forest).

        While the machine is partitioned a broadcast from a root only
        reaches the root's own group; forwards that cross groups (stale
        traffic from before the cut) are dropped.
        """
        self._groups = [sorted(g) for g in groups]
        self._pos = {r: (gi, i)
                     for gi, group in enumerate(self._groups)
                     for i, r in enumerate(group)}

    def broadcast(self, root: int, payload: Any) -> None:
        """Start a broadcast from ``root`` (callable any number of times)."""
        self.machine.topology.check_rank(root)
        self._forward(root, root, payload)
        self.on_receive(root, payload)

    def _on_message(self, msg: Message) -> None:
        root, payload = msg.payload
        self._forward(msg.dest, root, payload)
        self.on_receive(msg.dest, payload)

    def _forward(self, rank: int, root: int, payload: Any) -> None:
        at = self._pos.get(rank)
        rt = self._pos.get(root)
        if at is None or rt is None or at[0] != rt[0]:
            # stale forward involving a rank dropped by set_ranks / cut
            # off by set_groups; the restart broadcast over the current
            # membership supersedes it
            return
        group = self._groups[at[0]]
        pos, rpos = at[1], rt[1]
        n = len(group)
        rel = (pos - rpos) % n
        node = self.machine.node(rank)
        k = rel.bit_length()
        while True:
            child_rel = rel + (1 << k)
            if child_rel >= n:
                break
            dest = group[(child_rel + rpos) % n]
            node.send(dest, self.kind, (root, payload),
                      size=self.payload_bytes, reliable=self.reliable)
            k += 1


def modeled_barrier_latency(machine: Machine) -> float:
    """Analytic cost of one up-and-down tree barrier on this machine.

    Used where the runtime driver needs to charge for a synchronization it
    performs omnisciently (e.g. the iteration barrier of IDA*), without
    spelling out the message exchange: two traversals of the spanning
    tree, each hop paying wire latency plus send/recv software overhead.
    """
    lat = machine.latency
    parent, _children = machine.topology.spanning_tree(0)
    depth = 0
    for r in range(machine.num_nodes):
        d = 0
        cur = r
        while parent[cur] != -1:
            d += machine.topology.distance(cur, parent[cur])
            cur = parent[cur]
        depth = max(depth, d)
    per_step = lat.per_hop + 2 * lat.software_overhead + lat.per_byte * HEADER_BYTES
    return 2.0 * depth * per_step
