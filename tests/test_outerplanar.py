import pytest
from hypothesis import given, settings, strategies as st

from gammarho.generators import gen_complete_bipartite, gen_cycle, gen_path, gen_random_mop, gen_sun
from gammarho.graphs import Graph, is_dominating, is_packing
from gammarho.outerplanar import (
    NotMaximalOuterplanar,
    averaged_dominating,
    build_clique_graph,
    build_dual,
    certify_mop,
    clique_graph_numbers,
    lift_packing,
    low_degree_count,
    mop_facts,
    project_dominating,
    recognize_mop,
    tokunaga_color,
    verify_tokunaga,
)
from gammarho.solvers import brute_gamma, brute_rho, domination_number, packing_number


FAN6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                            (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])


def mop_corpus():
    return [gen_random_mop(4 + s % 12, s) for s in range(40)]


def test_recognize_triangle():
    t = recognize_mop(gen_cycle(3))
    assert t.boundary == (0, 1, 2)
    assert t.triangles == ((0, 1, 2),)


def test_recognize_sun():
    t = recognize_mop(gen_sun())
    assert t.boundary == (0, 1, 2, 3, 4, 5)
    assert t.triangles == ((0, 1, 5), (1, 2, 3), (1, 3, 5), (3, 4, 5))


def test_recognize_fan():
    t = recognize_mop(FAN6)
    assert t.boundary == (0, 1, 2, 3, 4, 5)
    assert t.triangles == ((0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5))


def test_recognize_rejects_non_mops():
    for g in (gen_path(5), gen_cycle(6), gen_complete_bipartite(3, 3)):
        with pytest.raises(NotMaximalOuterplanar):
            recognize_mop(g)
    # 2-tree with the right edge count but a K_{2,3} inside: three ears
    # over one base edge cannot all sit on the outer face
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    assert g.m == 2 * g.n - 3
    with pytest.raises(NotMaximalOuterplanar):
        recognize_mop(g)
    assert issubclass(NotMaximalOuterplanar, ValueError)


def test_recognize_random_mops():
    for g in mop_corpus():
        t = recognize_mop(g)
        assert len(t.triangles) == g.n - 2
        assert g.m == 2 * g.n - 3
        # every triangle is an actual triangle of g
        for a, b, c in t.triangles:
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)


def test_dual_tree_of_sun_and_fan():
    t = recognize_mop(gen_sun())
    dual = build_dual(t)
    assert sorted(dual.shared) == [(0, 2), (1, 2), (2, 3)]
    assert dual.shared[(1, 2)] == (1, 3)
    t2 = recognize_mop(FAN6)
    dual2 = build_dual(t2)
    assert sorted(dual2.shared) == [(0, 1), (1, 2), (2, 3)]


def test_dual_is_tree_on_corpus():
    for g in mop_corpus():
        t = recognize_mop(g)
        dual = build_dual(t)
        assert dual.graph.is_tree()
        for (i, j), (a, b) in dual.shared.items():
            assert set((a, b)) <= set(t.triangles[i]) & set(t.triangles[j])


def test_clique_graph_contains_dual():
    t = recognize_mop(gen_sun())
    cg = build_clique_graph(t)
    assert cg.n == 4 and cg.m == 6  # every pair shares vertex 1, 3 or 5
    for g in mop_corpus():
        t = recognize_mop(g)
        dual = build_dual(t)
        cg = build_clique_graph(t)
        for i, j in dual.shared:
            assert cg.has_edge(i, j)


def test_tokunaga_coloring_fixed_examples():
    t = recognize_mop(gen_sun())
    dual = build_dual(t)
    colors = tokunaga_color(t, dual)
    assert colors == (0, 1, 0, 3, 0, 2)
    assert verify_tokunaga(t, colors, dual) == []
    t2 = recognize_mop(FAN6)
    dual2 = build_dual(t2)
    colors2 = tokunaga_color(t2, dual2)
    assert verify_tokunaga(t2, colors2, dual2) == []
    assert len(set(colors2)) <= 4


def test_tokunaga_on_corpus_and_corruption():
    for g in mop_corpus():
        t = recognize_mop(g)
        dual = build_dual(t)
        colors = tokunaga_color(t, dual)
        assert verify_tokunaga(t, colors, dual) == []
        # proper on edges
        for u, v in g.edges():
            assert colors[u] != colors[v]
        # corrupt one vertex: the checker must notice
        broken = list(colors)
        broken[t.triangles[0][0]] = (broken[t.triangles[0][0]] + 1) % 4
        assert verify_tokunaga(t, tuple(broken), dual) != []


def test_low_degree_count():
    assert low_degree_count(gen_sun()) == 3
    assert low_degree_count(gen_cycle(3)) == 3
    assert low_degree_count(FAN6) == 5  # all but the apex


def test_project_and_average_dominate():
    for g in mop_corpus():
        t = recognize_mop(g)
        cg = build_clique_graph(t)
        cg_gamma = domination_number(cg)
        projected = project_dominating(t, cg, cg_gamma.witness)
        assert is_dominating(g, projected)
        assert len(projected) <= 3 * cg_gamma.value
        colors = tokunaga_color(t, build_dual(t))
        averaged = averaged_dominating(t, projected, colors)
        assert is_dominating(g, averaged)
        assert 4 * len(averaged) <= 3 * len(projected) + low_degree_count(g)


def test_lift_packing_preserves_size():
    for g in mop_corpus():
        t = recognize_mop(g)
        dual = build_dual(t)
        cg = build_clique_graph(t)
        cg_rho = packing_number(cg)
        lifted = lift_packing(t, dual, cg_rho.witness, cg)
        assert len(lifted) == cg_rho.value
        assert is_packing(g, lifted)


def test_clique_graph_gamma_equals_rho():
    for g in mop_corpus():
        cg = build_clique_graph(recognize_mop(g))
        assert domination_number(cg).value == packing_number(cg).value


MOP_CHECKS = ["clique-graph-gamma-eq-rho", "rho-ge-clique-rho",
              "gamma-le-3rho", "gamma-le-9rho-plus-t-over-4",
              "gamma-le-2rho", "tokunaga-4cycle", "lift-packing-size"]


def test_mop_records_record_set():
    _, records = certify_mop(gen_sun(), "sun")
    assert [r.check for r in records] == MOP_CHECKS
    assert all(r.holds for r in records)
    assert records[0].gamma == 2 and records[0].rho == 1


def test_mop_facts_share_one_build_with_every_consumer():
    for s, g in enumerate(mop_corpus()):
        f = mop_facts(g)
        t = f.triangulation
        assert t == recognize_mop(g)
        assert f.dual.graph == build_dual(t).graph
        assert f.dual.shared == build_dual(t).shared
        assert f.clique_graph == build_clique_graph(t)
        assert f.colors == tokunaga_color(t, build_dual(t))
        # the same values as search, with valid witnesses and no search
        cg = f.clique_graph
        assert f.gamma.value == domination_number(g).value
        assert f.rho.value == packing_number(g).value
        assert f.cg_gamma.value == domination_number(cg).value
        assert f.cg_rho.value == packing_number(cg).value
        for res, graph in ((f.gamma, g), (f.cg_gamma, cg)):
            assert len(res.witness) == res.value and res.nodes == 0
            assert is_dominating(graph, res.witness)
        for res, graph in ((f.rho, g), (f.cg_rho, cg)):
            assert len(res.witness) == res.value and res.nodes == 0
            assert is_packing(graph, res.witness)
        assert verify_tokunaga(t, f.colors, f.dual) == []
        _, records = certify_mop(g, f"mop-{s}")
        assert [r.check for r in records] == MOP_CHECKS
        assert all(r.holds for r in records if r.kind == "theorem")


def test_bounds_hold_against_brute_force():
    for g in mop_corpus():
        if g.n > 14:
            continue
        gamma, rho = brute_gamma(g), brute_rho(g)
        t = low_degree_count(g)
        assert gamma <= 3 * rho
        assert 4 * gamma <= 9 * rho + t
        assert gamma <= 2 * rho


def _assert_certified(f):
    """gamma and rho of the mop and of its clique graph came without
    search, with witnesses of the reported size that check out."""
    g, cg = f.triangulation.graph, f.clique_graph
    for res, graph, valid in ((f.gamma, g, is_dominating),
                              (f.rho, g, is_packing),
                              (f.cg_gamma, cg, is_dominating),
                              (f.cg_rho, cg, is_packing)):
        assert res.nodes == 0
        assert len(res.witness) == res.value
        assert valid(graph, res.witness)
    assert f.cg_gamma.value == f.cg_rho.value


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 20), st.integers(0, 10**6))
def test_walk_matches_brute_force(n, seed):
    f = mop_facts(gen_random_mop(n, seed))
    _assert_certified(f)
    g, cg = f.triangulation.graph, f.clique_graph
    assert (f.gamma.value, f.rho.value) == (brute_gamma(g), brute_rho(g))
    assert f.cg_gamma.value == brute_gamma(cg) == brute_rho(cg)


@pytest.mark.parametrize("n, seed", [(20, 1), (24, 7), (29, 3), (33, 12),
                                     (38, 5), (42, 2), (47, 9), (53, 4),
                                     (60, 8)])
def test_walk_matches_search(n, seed):
    f = mop_facts(gen_random_mop(n, seed))
    _assert_certified(f)
    g, cg = f.triangulation.graph, f.clique_graph
    assert f.gamma.value == domination_number(g).value
    assert f.rho.value == packing_number(g).value
    assert f.cg_gamma.value == domination_number(cg).value


def test_walk_edge_cases():
    # a lone triangle; n = 4, whose clique graph is K2; a fan, whose
    # clique graph is complete
    for g, values in ((gen_cycle(3), (1, 1, 1)),
                      (gen_random_mop(4, 0), (1, 1, 1)),
                      (FAN6, (1, 1, 1))):
        f = mop_facts(g)
        _assert_certified(f)
        assert (f.gamma.value, f.rho.value, f.cg_rho.value) == values
    assert mop_facts(FAN6).clique_graph.m == 6
    assert mop_facts(gen_random_mop(4, 0)).clique_graph.m == 1


def test_clique_graph_numbers_match_mop_facts():
    for g in mop_corpus():
        f = mop_facts(g)
        t = f.triangulation
        assert clique_graph_numbers(t, f.dual, f.clique_graph) == (
            f.cg_gamma, f.cg_rho)
