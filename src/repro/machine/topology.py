"""Interconnect topologies of the simulated multicomputer.

The paper targets the Intel Paragon, a 2-D mesh machine, and states that
RIPS "applies to different topologies, such as the tree, mesh, and
hypercube".  We implement all three (plus a torus as an extension) behind
one interface so the schedulers and the network are topology-agnostic.

Ranks are integers ``0 .. num_nodes-1``.  For the mesh, the paper's node
``(i, j)`` (row ``i`` of ``n1``, column ``j`` of ``n2``) is rank
``i * n2 + j`` — the row-major order also used for the quota assignment
in the Mesh Walking Algorithm.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = [
    "Topology",
    "MeshTopology",
    "TorusTopology",
    "HypercubeTopology",
    "TreeTopology",
    "FullyConnectedTopology",
    "mesh_shape_for",
    "hop_table",
    "make_topology",
]


class Topology(ABC):
    """Abstract interconnect: ranks, adjacency, shortest-path routing."""

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of processors."""

    @property
    @abstractmethod
    def shape(self) -> tuple:
        """Constructor arguments: ``type(self)(*self.shape)`` rebuilds an
        equivalent topology.  Keys the :func:`hop_table` memo."""

    @abstractmethod
    def neighbors(self, rank: int) -> Sequence[int]:
        """Directly connected ranks, in deterministic order."""

    @abstractmethod
    def next_hop(self, current: int, dest: int) -> int:
        """Deterministic routing: the neighbor to forward to for ``dest``."""

    # ------------------------------------------------------------------
    # derived helpers
    # ------------------------------------------------------------------
    def check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_nodes:
            raise ValueError(f"rank {rank} out of range [0, {self.num_nodes})")

    def route(self, src: int, dest: int) -> list[int]:
        """Full path ``[src, ..., dest]`` under deterministic routing."""
        self.check_rank(src)
        self.check_rank(dest)
        path = [src]
        cur = src
        hops = 0
        while cur != dest:
            cur = self.next_hop(cur, dest)
            path.append(cur)
            hops += 1
            if hops > 4 * self.num_nodes:  # pragma: no cover - defensive
                raise RuntimeError("routing did not converge")
        return path

    def distance(self, src: int, dest: int) -> int:
        """Hop count of the deterministic route."""
        return len(self.route(src, dest)) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges, each yielded once with ``u < v``."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def diameter(self) -> int:
        """Maximum routing distance between any pair (O(N^2) paths)."""
        return max(
            self.distance(u, v)
            for u in range(self.num_nodes)
            for v in range(self.num_nodes)
        )

    def spanning_tree(self, root: int = 0) -> tuple[list[int], list[list[int]]]:
        """BFS spanning tree: ``(parent, children)`` arrays.

        ``parent[root] == -1``.  Used for ready-signal trees, reductions,
        and broadcasts (Section 2 of the paper).
        """
        self.check_rank(root)
        parent = [-2] * self.num_nodes
        children: list[list[int]] = [[] for _ in range(self.num_nodes)]
        parent[root] = -1
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self.neighbors(u):
                    if parent[v] == -2:
                        parent[v] = u
                        children[u].append(v)
                        nxt.append(v)
            frontier = nxt
        if any(p == -2 for p in parent):  # pragma: no cover - defensive
            raise RuntimeError("topology is disconnected")
        return parent, children


class MeshTopology(Topology):
    """An ``n1 x n2`` 2-D mesh with X-then-Y dimension-order routing.

    Matches the Paragon-style mesh of the paper.  Routing first corrects
    the column (movement within a row), then the row, which is what the
    Mesh Walking Algorithm's communication-step accounting assumes.
    """

    def __init__(self, n1: int, n2: int) -> None:
        if n1 < 1 or n2 < 1:
            raise ValueError("mesh dimensions must be positive")
        self.n1 = n1
        self.n2 = n2

    @property
    def num_nodes(self) -> int:
        return self.n1 * self.n2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    # coordinates -------------------------------------------------------
    def coords(self, rank: int) -> tuple[int, int]:
        """(row, col) of a rank."""
        self.check_rank(rank)
        return divmod(rank, self.n2)

    def rank_of(self, i: int, j: int) -> int:
        if not (0 <= i < self.n1 and 0 <= j < self.n2):
            raise ValueError(f"coords ({i},{j}) outside {self.n1}x{self.n2} mesh")
        return i * self.n2 + j

    # adjacency ---------------------------------------------------------
    def neighbors(self, rank: int) -> list[int]:
        i, j = self.coords(rank)
        out = []
        if j > 0:
            out.append(self.rank_of(i, j - 1))
        if j < self.n2 - 1:
            out.append(self.rank_of(i, j + 1))
        if i > 0:
            out.append(self.rank_of(i - 1, j))
        if i < self.n1 - 1:
            out.append(self.rank_of(i + 1, j))
        return out

    def next_hop(self, current: int, dest: int) -> int:
        i, j = self.coords(current)
        di, dj = self.coords(dest)
        if j != dj:
            return self.rank_of(i, j + (1 if dj > j else -1))
        if i != di:
            return self.rank_of(i + (1 if di > i else -1), j)
        return current

    def distance(self, src: int, dest: int) -> int:
        i, j = self.coords(src)
        di, dj = self.coords(dest)
        return abs(i - di) + abs(j - dj)

    def diameter(self) -> int:
        return (self.n1 - 1) + (self.n2 - 1)

    def __repr__(self) -> str:
        return f"MeshTopology({self.n1}x{self.n2})"


class TorusTopology(MeshTopology):
    """2-D torus (mesh with wraparound links); an extension topology."""

    def neighbors(self, rank: int) -> list[int]:
        i, j = self.coords(rank)
        out = []
        if self.n2 > 1:
            out.append(self.rank_of(i, (j - 1) % self.n2))
            if self.n2 > 2:
                out.append(self.rank_of(i, (j + 1) % self.n2))
        if self.n1 > 1:
            out.append(self.rank_of((i - 1) % self.n1, j))
            if self.n1 > 2:
                out.append(self.rank_of((i + 1) % self.n1, j))
        return out

    @staticmethod
    def _step(cur: int, dst: int, n: int) -> int:
        """Shortest signed step on a ring of size n (ties go positive)."""
        fwd = (dst - cur) % n
        bwd = (cur - dst) % n
        return 1 if fwd <= bwd else -1

    def next_hop(self, current: int, dest: int) -> int:
        i, j = self.coords(current)
        di, dj = self.coords(dest)
        if j != dj:
            return self.rank_of(i, (j + self._step(j, dj, self.n2)) % self.n2)
        if i != di:
            return self.rank_of((i + self._step(i, di, self.n1)) % self.n1, j)
        return current

    def distance(self, src: int, dest: int) -> int:
        i, j = self.coords(src)
        di, dj = self.coords(dest)
        dr = min((di - i) % self.n1, (i - di) % self.n1)
        dc = min((dj - j) % self.n2, (j - dj) % self.n2)
        return dr + dc

    def diameter(self) -> int:
        return self.n1 // 2 + self.n2 // 2

    def __repr__(self) -> str:
        return f"TorusTopology({self.n1}x{self.n2})"


class HypercubeTopology(Topology):
    """A ``d``-dimensional hypercube with e-cube (lowest-bit-first) routing."""

    def __init__(self, dim: int) -> None:
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        self.dim = dim

    @property
    def num_nodes(self) -> int:
        return 1 << self.dim

    @property
    def shape(self) -> tuple[int]:
        return (self.dim,)

    def neighbors(self, rank: int) -> list[int]:
        self.check_rank(rank)
        return [rank ^ (1 << b) for b in range(self.dim)]

    def next_hop(self, current: int, dest: int) -> int:
        self.check_rank(current)
        self.check_rank(dest)
        diff = current ^ dest
        if diff == 0:
            return current
        lowest = diff & -diff
        return current ^ lowest

    def distance(self, src: int, dest: int) -> int:
        self.check_rank(src)
        self.check_rank(dest)
        return (src ^ dest).bit_count()

    def diameter(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"HypercubeTopology(dim={self.dim})"


class TreeTopology(Topology):
    """A complete ``k``-ary tree over ``n`` ranks (rank 0 is the root).

    Rank ``r``'s children are ``k*r + 1 .. k*r + k``; routing goes up to
    the lowest common ancestor and back down.
    """

    def __init__(self, num_nodes: int, arity: int = 2) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self._n = num_nodes
        self.arity = arity

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self.arity)

    def parent(self, rank: int) -> int:
        """Parent rank, or -1 for the root."""
        self.check_rank(rank)
        return (rank - 1) // self.arity if rank > 0 else -1

    def children(self, rank: int) -> list[int]:
        self.check_rank(rank)
        lo = self.arity * rank + 1
        return [c for c in range(lo, min(lo + self.arity, self._n))]

    def neighbors(self, rank: int) -> list[int]:
        out = []
        p = self.parent(rank)
        if p >= 0:
            out.append(p)
        out.extend(self.children(rank))
        return out

    def _ancestors(self, rank: int) -> list[int]:
        path = [rank]
        while rank > 0:
            rank = self.parent(rank)
            path.append(rank)
        return path  # rank .. 0

    def next_hop(self, current: int, dest: int) -> int:
        if current == dest:
            return current
        up = set(self._ancestors(current))
        # Walk dest's ancestor chain until we meet current's chain: the node
        # just below the meeting point on dest's side is the downhill hop.
        node = dest
        prev = dest
        while node not in up:
            prev = node
            node = self.parent(node)
        if node == current:
            return prev  # go down toward dest
        return self.parent(current)  # go up toward the LCA

    def __repr__(self) -> str:
        return f"TreeTopology(n={self._n}, arity={self.arity})"


class FullyConnectedTopology(Topology):
    """Crossbar: every pair is one hop apart.  Baseline/testing topology."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self._n = num_nodes

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int]:
        return (self._n,)

    def neighbors(self, rank: int) -> list[int]:
        self.check_rank(rank)
        return [r for r in range(self._n) if r != rank]

    def next_hop(self, current: int, dest: int) -> int:
        self.check_rank(current)
        self.check_rank(dest)
        return dest

    def distance(self, src: int, dest: int) -> int:
        self.check_rank(src)
        self.check_rank(dest)
        return 0 if src == dest else 1

    def diameter(self) -> int:
        return 1 if self._n > 1 else 0

    def __repr__(self) -> str:
        return f"FullyConnectedTopology(n={self._n})"


@lru_cache(maxsize=None)
def mesh_shape_for(num_nodes: int) -> tuple[int, int]:
    """The paper's mesh shapes: ``M x M`` or ``M x M/2``.

    8 -> 2x4? No: the paper runs 32 processors on an "8 x 4 mesh", so the
    first dimension (rows, n1) is the larger: 8=4x2, 16=4x4, 32=8x4,
    64=8x8, 128=16x8, 256=16x16.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    # Find n1 >= n2 with n1*n2 == num_nodes and n1/n2 in {1, 2}.
    import math

    root = math.isqrt(num_nodes)
    if root * root == num_nodes:
        return (root, root)
    n2 = math.isqrt(num_nodes // 2)
    if 2 * n2 * n2 == num_nodes:
        return (2 * n2, n2)
    # General fallback: most-square factorization with n1 >= n2.
    for n2 in range(root, 0, -1):
        if num_nodes % n2 == 0:
            return (num_nodes // n2, n2)
    raise ValueError(f"cannot factor {num_nodes}")  # pragma: no cover


@lru_cache(maxsize=16)
def _hop_rows(cls: type, shape: tuple) -> tuple[tuple[int, ...], ...]:
    t = cls(*shape)
    n = t.num_nodes
    return tuple(tuple(t.distance(s, d) for d in range(n)) for s in range(n))


def hop_table(topology: Topology) -> tuple[tuple[int, ...], ...]:
    """Memoised hop counts: ``hop_table(t)[src][dest] == t.distance(src, dest)``.

    One table per topology class and :attr:`~Topology.shape`, shared by
    every machine of that shape in the process (the 16 most recent
    shapes are kept).  Indexing does no range check (a negative rank
    wraps), so callers validate ranks first.
    """
    return _hop_rows(type(topology), topology.shape)


def make_topology(kind: str, num_nodes: int, **kwargs) -> Topology:
    """Factory: ``kind`` in {'mesh', 'torus', 'hypercube', 'tree', 'full'}."""
    kind = kind.lower()
    if kind == "mesh":
        n1, n2 = kwargs.get("shape") or mesh_shape_for(num_nodes)
        if n1 * n2 != num_nodes:
            raise ValueError("shape does not match num_nodes")
        return MeshTopology(n1, n2)
    if kind == "torus":
        n1, n2 = kwargs.get("shape") or mesh_shape_for(num_nodes)
        if n1 * n2 != num_nodes:
            raise ValueError("shape does not match num_nodes")
        return TorusTopology(n1, n2)
    if kind == "hypercube":
        dim = num_nodes.bit_length() - 1
        if 1 << dim != num_nodes:
            raise ValueError("hypercube size must be a power of two")
        return HypercubeTopology(dim)
    if kind == "tree":
        return TreeTopology(num_nodes, arity=kwargs.get("arity", 2))
    if kind in ("full", "crossbar"):
        return FullyConnectedTopology(num_nodes)
    raise ValueError(f"unknown topology kind {kind!r}")
