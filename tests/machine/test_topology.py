"""Tests for interconnect topologies and routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.topology import (
    FullyConnectedTopology,
    HypercubeTopology,
    MeshTopology,
    TorusTopology,
    TreeTopology,
    hop_table,
    make_topology,
    mesh_shape_for,
)

ALL_TOPOLOGIES = [
    MeshTopology(1, 1),
    MeshTopology(1, 7),
    MeshTopology(5, 1),
    MeshTopology(4, 4),
    MeshTopology(8, 4),
    TorusTopology(4, 4),
    TorusTopology(3, 5),
    HypercubeTopology(0),
    HypercubeTopology(3),
    HypercubeTopology(5),
    TreeTopology(1),
    TreeTopology(13, arity=2),
    TreeTopology(10, arity=3),
    FullyConnectedTopology(6),
]


@pytest.mark.parametrize("topo", ALL_TOPOLOGIES, ids=repr)
def test_neighbors_are_symmetric(topo):
    for u in range(topo.num_nodes):
        for v in topo.neighbors(u):
            assert u in topo.neighbors(v), (u, v)
            assert u != v


@pytest.mark.parametrize("topo", ALL_TOPOLOGIES, ids=repr)
def test_routing_reaches_destination_via_edges(topo):
    n = topo.num_nodes
    for src in range(n):
        for dest in range(n):
            path = topo.route(src, dest)
            assert path[0] == src and path[-1] == dest
            for a, b in zip(path, path[1:]):
                assert b in topo.neighbors(a)
            # deterministic routing: path length equals reported distance
            assert len(path) - 1 == topo.distance(src, dest)


@pytest.mark.parametrize("topo", ALL_TOPOLOGIES, ids=repr)
def test_distance_is_shortest_path(topo):
    # BFS shortest-path oracle; the memoised hop table must agree too
    n = topo.num_nodes
    hops = hop_table(topo)
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in topo.neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for dest in range(n):
            assert topo.distance(src, dest) == dist[dest], (src, dest)
            assert hops[src][dest] == dist[dest], (src, dest)


@pytest.mark.parametrize("topo", ALL_TOPOLOGIES, ids=repr)
def test_spanning_tree_covers_all_nodes(topo):
    parent, children = topo.spanning_tree(0)
    assert parent[0] == -1
    n = topo.num_nodes
    seen = set()
    stack = [0]
    while stack:
        u = stack.pop()
        assert u not in seen
        seen.add(u)
        stack.extend(children[u])
    assert seen == set(range(n))
    for v in range(1, n):
        assert v in topo.neighbors(parent[v])


def test_mesh_coords_roundtrip():
    mesh = MeshTopology(8, 4)
    for r in range(32):
        i, j = mesh.coords(r)
        assert mesh.rank_of(i, j) == r


def test_mesh_xy_routing_corrects_column_first():
    mesh = MeshTopology(4, 4)
    path = mesh.route(mesh.rank_of(0, 0), mesh.rank_of(2, 3))
    coords = [mesh.coords(r) for r in path]
    # column moves first (X), then row moves
    assert coords == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def test_mesh_diameter():
    assert MeshTopology(8, 4).diameter() == 10
    assert MeshTopology(1, 1).diameter() == 0


def test_torus_wraparound_shortens_paths():
    torus = TorusTopology(4, 4)
    mesh = MeshTopology(4, 4)
    assert torus.distance(0, mesh.rank_of(0, 3)) == 1
    assert torus.diameter() < mesh.diameter()


def test_torus_small_rings_have_no_duplicate_neighbors():
    t = TorusTopology(2, 2)
    for r in range(4):
        nbrs = t.neighbors(r)
        assert len(nbrs) == len(set(nbrs))


def test_hypercube_properties():
    cube = HypercubeTopology(4)
    assert cube.num_nodes == 16
    assert cube.diameter() == 4
    assert cube.distance(0b0000, 0b1111) == 4
    # e-cube fixes lowest bit first
    assert cube.route(0b0000, 0b0110) == [0b0000, 0b0010, 0b0110]


def test_tree_parent_child_relations():
    tree = TreeTopology(13, arity=2)
    assert tree.parent(0) == -1
    for v in range(1, 13):
        assert v in tree.children(tree.parent(v))


def test_tree_routing_through_lca():
    tree = TreeTopology(7, arity=2)
    # 3 and 4 share parent 1; 3 and 5 meet at the root
    assert tree.route(3, 4) == [3, 1, 4]
    assert tree.route(3, 5) == [3, 1, 0, 2, 5]


def test_fully_connected_single_hop():
    full = FullyConnectedTopology(5)
    assert full.distance(0, 4) == 1
    assert full.diameter() == 1


def test_mesh_shape_for_paper_sizes():
    assert mesh_shape_for(8) == (4, 2)
    assert mesh_shape_for(16) == (4, 4)
    assert mesh_shape_for(32) == (8, 4)
    assert mesh_shape_for(64) == (8, 8)
    assert mesh_shape_for(128) == (16, 8)
    assert mesh_shape_for(256) == (16, 16)


@given(st.integers(min_value=1, max_value=2048))
def test_mesh_shape_for_always_factors(n):
    n1, n2 = mesh_shape_for(n)
    assert n1 * n2 == n and n1 >= n2 >= 1


def test_make_topology_factory():
    assert isinstance(make_topology("mesh", 32), MeshTopology)
    assert isinstance(make_topology("torus", 16), TorusTopology)
    assert isinstance(make_topology("hypercube", 16), HypercubeTopology)
    assert isinstance(make_topology("tree", 9, arity=3), TreeTopology)
    assert isinstance(make_topology("full", 4), FullyConnectedTopology)
    with pytest.raises(ValueError):
        make_topology("hypercube", 12)
    with pytest.raises(ValueError):
        make_topology("nope", 4)
    with pytest.raises(ValueError):
        make_topology("mesh", 32, shape=(3, 5))


def test_rank_validation():
    mesh = MeshTopology(2, 2)
    with pytest.raises(ValueError):
        mesh.neighbors(4)
    with pytest.raises(ValueError):
        mesh.route(0, 7)
    with pytest.raises(ValueError):
        mesh.rank_of(2, 0)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        MeshTopology(0, 3)
    with pytest.raises(ValueError):
        TreeTopology(0)
    with pytest.raises(ValueError):
        TreeTopology(3, arity=0)
    with pytest.raises(ValueError):
        HypercubeTopology(-1)
    with pytest.raises(ValueError):
        FullyConnectedTopology(0)


@settings(max_examples=30)
@given(st.integers(0, 5), st.integers(0, 31), st.integers(0, 31))
def test_hypercube_distance_is_popcount(dim, a, b):
    cube = HypercubeTopology(dim)
    n = cube.num_nodes
    a, b = a % n, b % n
    assert cube.distance(a, b) == (a ^ b).bit_count()
