"""Minimum-cost maximum-flow, from scratch.

Section 3 of the paper reduces optimal task redistribution to min-cost
max-flow (citing Lawler): every interconnect edge gets capacity ``inf``
and cost 1, a super-source feeds overloaded nodes, a super-sink drains
underloaded ones, and a minimum-cost integral flow is an optimal
transfer plan.

We implement successive shortest augmenting paths with Johnson
potentials (Dijkstra on reduced costs).  All costs must be
non-negative; with integer capacities the result is integral.  Each
augmentation saturates at least one arc or one supply, so the number of
Dijkstra runs is O(V + E) — in the Figure-4 experiments (unit costs,
mesh graphs up to 16x16) it is effectively O(V).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = ["MinCostFlow", "FlowResult"]

INF = float("inf")


@dataclass
class FlowResult:
    """Outcome of :meth:`MinCostFlow.solve`."""

    flow_value: int
    cost: int
    #: flow per arc in insertion order (parallel to ``add_edge`` calls)
    edge_flows: list[int]


class MinCostFlow:
    """Min-cost max-flow on a directed graph with non-negative costs.

    >>> g = MinCostFlow(4)
    >>> _ = g.add_edge(0, 1, 2, 1)
    >>> _ = g.add_edge(0, 2, 1, 2)
    >>> _ = g.add_edge(1, 3, 1, 1)
    >>> _ = g.add_edge(2, 3, 2, 1)
    >>> _ = g.add_edge(1, 2, 1, 1)
    >>> r = g.solve(0, 3)
    >>> (r.flow_value, r.cost)
    (3, 8)
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("graph needs at least one node")
        self.n = num_nodes
        # adjacency: per node, list of arc indices into the arrays below
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self._to: list[int] = []
        self._cap: list[float] = []
        self._cost: list[float] = []
        self._num_edges = 0

    def add_edge(self, u: int, v: int, capacity: float, cost: float) -> int:
        """Add arc ``u -> v``; returns its index (for ``edge_flows``)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("edge endpoint out of range")
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if cost < 0:
            raise ValueError("costs must be non-negative for this solver")
        # forward arc at even index, reverse at odd
        self.adj[u].append(len(self._to))
        self._to.append(v)
        self._cap.append(capacity)
        self._cost.append(cost)
        self.adj[v].append(len(self._to))
        self._to.append(u)
        self._cap.append(0)
        self._cost.append(-cost)
        self._num_edges += 1
        return self._num_edges - 1

    # ------------------------------------------------------------------
    def solve(self, source: int, sink: int, max_flow: float = INF) -> FlowResult:
        """Push up to ``max_flow`` units from ``source`` to ``sink`` at
        minimum cost.  Pushes as much as the network allows."""
        if source == sink:
            raise ValueError("source and sink must differ")
        n = self.n
        to, cap, cost = self._to, self._cap, self._cost
        arc_flow = [0.0] * len(to)
        potential = [0.0] * n
        total_flow = 0
        total_cost = 0.0

        while total_flow < max_flow:
            # Dijkstra on reduced costs
            dist = [INF] * n
            prev_arc = [-1] * n
            dist[source] = 0.0
            pq: list[tuple[float, int]] = [(0.0, source)]
            while pq:
                d, u = heapq.heappop(pq)
                if d > dist[u] + 1e-12:
                    continue
                for aidx in self.adj[u]:
                    if cap[aidx] <= 0:
                        continue
                    v = to[aidx]
                    nd = d + cost[aidx] + potential[u] - potential[v]
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        prev_arc[v] = aidx
                        heapq.heappush(pq, (nd, v))
            if dist[sink] == INF:
                break
            for v in range(n):
                if dist[v] < INF:
                    potential[v] += dist[v]
            # bottleneck along the path
            push = max_flow - total_flow
            v = sink
            while v != source:
                aidx = prev_arc[v]
                push = min(push, cap[aidx])
                v = to[aidx ^ 1]
            v = sink
            path_cost = 0.0
            while v != source:
                aidx = prev_arc[v]
                cap[aidx] -= push
                cap[aidx ^ 1] += push
                arc_flow[aidx] += push
                arc_flow[aidx ^ 1] -= push
                path_cost += cost[aidx]
                v = to[aidx ^ 1]
            total_flow += push
            total_cost += push * path_cost

        edge_flows = [
            int(round(max(arc_flow[2 * e], 0.0))) for e in range(self._num_edges)
        ]
        return FlowResult(
            flow_value=int(round(total_flow)),
            cost=int(round(total_cost)),
            edge_flows=edge_flows,
        )
