import pickle
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import to_nx
from gammarho.graphs import (
    Graph,
    bfs_tree,
    bipartition,
    distances_from,
    domination_violation,
    is_dominating,
    is_packing,
    packing_violation,
    square_restricted,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_from_edges_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    assert g.n == 4
    assert g.m == 3  # duplicate edge collapsed
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(2, 1) and not g.has_edge(0, 3)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])
    with pytest.raises(ValueError):
        Graph(2, [[1]])  # asymmetric adjacency


def test_closed_masks():
    g = path(4)
    assert g.closed_masks[0] == 0b0011
    assert g.closed_masks[1] == 0b0111
    assert g.closed_masks[3] == 0b1100


def test_degrees_and_regularity():
    g = cycle(5)
    assert g.max_degree() == 2
    assert g.is_regular() and g.is_regular(2) and not g.is_regular(3)
    assert path(3).max_degree() == 2


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_connected()
    assert path(5).is_connected()
    # the kept components travel with the graph to pool workers
    for h in (g, Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])):
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and copy.components() == comps


def test_is_tree():
    assert path(7).is_tree()
    assert not cycle(4).is_tree()
    # forest with two components is not a tree
    assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_tree()
    assert Graph.from_edges(1, []).is_tree()


def test_induced_subgraph_keeps_originals():
    g = cycle(6)
    sub, originals = g.induced([1, 2, 4])
    assert originals == (1, 2, 4)
    assert sub.n == 3
    assert sorted(sub.edges()) == [(0, 1)]  # only 1-2 survives


def test_induced_on_every_vertex_is_the_graph():
    g = cycle(6)
    sub, originals = g.induced([5, 3, 1, 0, 2, 4, 3])
    assert sub is g
    assert originals == tuple(range(6))
    assert sub == Graph(6, [list(nbrs) for nbrs in g.adj])


def test_distances():
    g = path(6)
    assert distances_from(g, 0) == [0, 1, 2, 3, 4, 5]
    assert distances_from(g, 3) == [3, 2, 1, 0, 1, 2]
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert distances_from(h, 0) == [0, 1, float("inf"), float("inf")]


@st.composite
def rooted_graphs(draw):
    """Any graph on 1..12 vertices, several components among the draws,
    and a root."""
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    return g, draw(st.integers(0, n - 1))


@settings(max_examples=100, deadline=None)
@given(rooted_graphs())
def test_bfs_tree_matches_networkx(case):
    g, root = case
    order, parent = bfs_tree(g.adj, root)
    G = to_nx(g)
    assert order == [root] + [v for _, v in
                              nx.bfs_edges(G, root, sort_neighbors=sorted)]
    pred = dict(nx.bfs_predecessors(G, root, sort_neighbors=sorted))
    assert parent == [pred.get(v, -1) for v in range(g.n)]



@settings(max_examples=100, deadline=None)
@given(rooted_graphs())
def test_components_and_bipartition_match_networkx(case):
    g, _ = case
    for h in (g, Graph.from_edges(g.n, []), Graph.from_edges(0, [])):
        assert h.components() == tuple(sorted(
            tuple(sorted(c)) for c in nx.connected_components(to_nx(h))))
    # the edges between even and odd labels make a bipartite draw
    odd = Graph.from_edges(g.n, [(u, v) for u, v in g.edges() if (u + v) % 2])
    for h in (g, odd):
        if not h.is_connected():
            continue
        lab = bipartition(h)
        G = to_nx(h)
        assert (lab is not None) == nx.is_bipartite(G)
        if lab is not None:
            depth = nx.single_source_shortest_path_length(G, 0)
            assert lab.side_x == tuple(v for v in range(h.n)
                                       if depth[v] % 2 == 0)
            assert lab.side_y == tuple(v for v in range(h.n) if depth[v] % 2)

def test_packing_checks():
    g = cycle(6)
    assert is_packing(g, [0, 3])
    assert packing_violation(g, [0, 3]) is None
    bad = packing_violation(g, [0, 2])
    assert bad == (0, 2)
    assert not is_packing(g, [0, 1])
    # a single vertex and the empty set are always packings
    assert is_packing(g, [4]) and is_packing(g, [])


def test_domination_checks():
    g = cycle(6)
    assert is_dominating(g, [0, 3])
    assert domination_violation(g, [0, 3]) is None
    assert domination_violation(g, [0]) == 2  # smallest uncovered vertex
    assert not is_dominating(g, [])
    assert is_dominating(Graph.from_edges(1, []), [0])


def test_bipartition_sides():
    g = cycle(6)
    lab = bipartition(g)
    assert lab is not None
    assert lab.side_x == (0, 2, 4) and lab.side_y == (1, 3, 5)
    assert bipartition(cycle(5)) is None
    with pytest.raises(ValueError):
        bipartition(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_square_restricted_on_cycle():
    g = cycle(6)
    sq = square_restricted(g, (0, 2, 4))
    # distance-2 pairs inside {0,2,4} form a triangle
    assert sq.graph.n == 3 and sq.graph.m == 3
    assert sq.originals == (0, 2, 4)
    with pytest.raises(ValueError):
        square_restricted(g, (0, 1))  # not independent


def test_equality_and_hash():
    a = path(4)
    b = Graph.from_edges(4, [(1, 0), (2, 1), (3, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != cycle(4)


def test_random_graphs_masks_consistent():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        for v in range(n):
            mask = 1 << v
            for u in g.neighbors(v):
                mask |= 1 << u
            assert g.closed_masks[v] == mask
