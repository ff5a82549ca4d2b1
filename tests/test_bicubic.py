import networkx as nx
import pytest

from conftest import to_nx
from gammarho.bicubic import (
    brooks_color,
    certify_bicubic,
    combined_packing,
    layer_decompose,
    maximal_packing_in,
    side_packing,
    validate_bicubic,
)
from gammarho.generators import (
    enumerate_bicubic,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bicubic,
    generalized_petersen,
    heawood,
    petersen,
)
from gammarho.graphs import Graph, is_packing, square_restricted
from gammarho.solvers import domination_number, packing_number


def bicubic_corpus():
    out = []
    for seed in range(12):
        n = 16 + 2 * (seed % 5)
        out.append(gen_random_bicubic(n, seed))
    return out


def test_validate_bicubic_accepts():
    for g in (gen_complete_bipartite(3, 3), heawood(), generalized_petersen(8, 3)):
        lab = validate_bicubic(g)
        assert len(lab.side_x) + len(lab.side_y) == g.n


def test_validate_bicubic_rejects():
    with pytest.raises(ValueError):
        validate_bicubic(petersen())  # odd cycles
    with pytest.raises(ValueError):
        validate_bicubic(gen_cycle(6))  # not cubic
    k33 = gen_complete_bipartite(3, 3)
    two = Graph.from_edges(12, list(k33.edges())
                           + [(u + 6, v + 6) for u, v in k33.edges()])
    with pytest.raises(ValueError):
        validate_bicubic(two)  # disconnected


def test_validate_bicubic_rejects_the_empty_graph():
    # vacuously connected, cubic and bipartite, but not a bicubic graph
    with pytest.raises(ValueError, match="no vertices"):
        validate_bicubic(Graph.from_edges(0, []))


def test_brooks_color_on_restricted_squares():
    for g in bicubic_corpus():
        lab = validate_bicubic(g)
        sq = square_restricted(g, lab.side_x)
        coloring = brooks_color(sq.graph)
        assert coloring.num_colors <= max(sq.graph.max_degree(), 3)
        for u, v in sq.graph.edges():
            assert coloring.colors[u] != coloring.colors[v]


def test_brooks_color_cut_vertex():
    # 4-regular: vertex 0 joins two lobes, each K5 minus the edge between
    # its first two vertices, to exactly those two vertices
    edges = []
    for lobe in ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10)):
        edges += [(u, v) for i, u in enumerate(lobe) for v in lobe[i + 1:]
                  if (u, v) != lobe[:2]]
        edges += [(0, lobe[0]), (0, lobe[1])]
    g = Graph.from_edges(11, edges)
    assert g.is_regular(4)
    coloring = brooks_color(g)
    assert coloring.method == "cut-vertex"
    assert coloring.colors == (0, 3, 3, 2, 1, 0, 3, 3, 2, 1, 0)
    assert coloring.num_colors == 4


def test_side_packing_guarantee():
    for g in bicubic_corpus():
        lab = validate_bicubic(g)
        for side in (lab.side_x, lab.side_y):
            p = side_packing(g, side)
            assert set(p) <= set(side)
            assert is_packing(g, p)
            assert 6 * len(p) >= len(side)


def test_side_packing_needs_sixteen_vertices():
    with pytest.raises(ValueError):
        side_packing(heawood(), validate_bicubic(heawood()).side_x)


def test_side_packing_rejects_non_side():
    g = gen_random_bicubic(16, 3)
    with pytest.raises(ValueError):
        side_packing(g, (0, 1, 2))


def test_maximal_packing_in():
    g = heawood()
    p = maximal_packing_in(g, range(g.n))
    assert is_packing(g, p)
    taken = 0
    for v in p:
        taken |= g.closed_masks[v]
    for v in range(g.n):
        assert g.closed_masks[v] & taken  # nothing else fits
    with pytest.raises(ValueError):
        maximal_packing_in(g, range(g.n), base=(0, 1))


def test_layer_decompose_identities():
    for g in bicubic_corpus():
        lab = validate_bicubic(g)
        base = side_packing(g, lab.side_x)
        p = maximal_packing_in(g, lab.side_x, base)
        layers = layer_decompose(g, lab, p)
        assert set(layers.p) | set(layers.r) == set(lab.side_x)
        assert set(layers.q) | set(layers.s) == set(lab.side_y)
        assert len(layers.q) == 3 * len(layers.p)
        assert len(layers.w) == 3 * len(layers.t)
        assert set(layers.w) <= set(layers.r)
        assert len(layers.s) <= 4 * len(layers.t)
        union = combined_packing(g, layers)
        assert is_packing(g, union)
        assert len(union) == len(layers.p) + len(layers.t)


def test_layer_decompose_rejects_bad_p():
    g = gen_random_bicubic(16, 1)
    lab = validate_bicubic(g)
    with pytest.raises(ValueError):
        layer_decompose(g, lab, ())
    with pytest.raises(ValueError):
        layer_decompose(g, lab, lab.side_y[:1])  # wrong side
    with pytest.raises(ValueError):
        layer_decompose(g, lab, lab.side_x[:1])  # not maximal


def test_check_bicubic_bounds_record_set():
    g = gen_random_bicubic(16, 5)
    _, records = certify_bicubic(g, "x")
    names = [r.check for r in records]
    assert names == ["gamma-le-5n-14", "rho-ge-7n-48",
                     "gamma-le-120-49-rho", "gamma-le-2rho-plus-1"]
    assert all(r.holds for r in records)
    _, small = certify_bicubic(gen_complete_bipartite(3, 3), "k33")
    assert [r.check for r in small] == ["gamma-le-120-49-rho",
                                        "gamma-le-2rho-plus-1"]
    assert all(r.holds for r in small)


def test_exhaustive_enumeration_counts():
    # OEIS A006823; n = 6 is K_{3,3} and nothing else
    expected = {6: 1, 8: 1, 10: 2, 12: 5, 14: 13}
    for n, count in expected.items():
        graphs = enumerate_bicubic(n)
        assert len(graphs) == count
        seen = []
        for g in graphs:
            assert g.n == n
            validate_bicubic(g)
            G = to_nx(g)
            assert all(not nx.is_isomorphic(G, H) for H in seen)
            seen.append(G)
    k33 = enumerate_bicubic(6)[0]
    assert nx.is_isomorphic(to_nx(k33), nx.complete_bipartite_graph(3, 3))


def test_exhaustive_small_orders_satisfy_two_rho():
    for n in (6, 8, 10, 12):
        for g in enumerate_bicubic(n):
            gamma = domination_number(g).value
            rho = packing_number(g).value
            assert gamma <= 2 * rho


def test_enumerate_rejects_other_orders():
    for n in (16, 13, 4, 0):
        with pytest.raises(ValueError):
            enumerate_bicubic(n)
