import random

import pytest

from gammarho.graphs import (
    Graph,
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
    assert g.closed_neighborhood(1) == (0, 1, 2)
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
    assert g.max_degree() == g.min_degree() == 2
    assert g.is_regular() and g.is_regular(2) and not g.is_regular(3)
    assert path(3).max_degree() == 2 and path(3).min_degree() == 1


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_connected()
    assert path(5).is_connected()


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
