from itertools import product

import pytest

from gammarho.biconvex import (
    ConvexOrdering,
    cb_decompose,
    certify_biconvex,
    construct_dominating,
    construct_packing,
    trim_core,
    validate_convex,
)
from gammarho.generators import gen_complete_bipartite, gen_path, gen_random_biconvex
from gammarho.graphs import CertificateError, Graph, is_dominating, is_packing
from gammarho.solvers import brute_gamma, brute_rho, solve_pair


def path7():
    return gen_path(7), ConvexOrdering((0, 2, 4, 6), (1, 3, 5))


# star of intervals with far flanks: gamma = rho = 3, k = 1
def spider():
    g = Graph.from_edges(6, [(0, 3), (1, 3), (1, 4), (1, 5), (2, 5)])
    return g, ConvexOrdering((0, 1, 2), (3, 4, 5))


def test_validate_convex_accepts():
    g, o = path7()
    validate_convex(g, o)
    validate_convex(*spider())
    validate_convex(gen_complete_bipartite(2, 3),
                    ConvexOrdering((0, 1), (2, 3, 4)))


def test_validate_convex_rejects():
    g, _ = path7()
    with pytest.raises(ValueError):
        validate_convex(g, ConvexOrdering((0, 2, 4), (1, 3, 5)))  # misses 6
    with pytest.raises(ValueError):
        validate_convex(g, ConvexOrdering((0, 1, 2, 3), (4, 5, 6)))  # edge inside X
    # neighborhood with a hole in the claimed order
    g2 = Graph.from_edges(4, [(0, 3), (2, 3)])
    with pytest.raises(ValueError):
        validate_convex(g2, ConvexOrdering((0, 1, 2), (3,)))
    validate_convex(g2, ConvexOrdering((0, 2, 1), (3,)))  # reordered fix


def test_trim_core_path7():
    g, o = path7()
    core = trim_core(g, o)
    assert core.x_core == (2, 4)
    assert not core.x_reversed
    assert core.trimmed_left == (0,)
    assert core.trimmed_right == (6,)


def test_trim_core_complete_bipartite_keeps_everything():
    g = gen_complete_bipartite(2, 3)
    core = trim_core(g, ConvexOrdering((0, 1), (2, 3, 4)))
    assert core.x_core == (0, 1)
    assert core.trimmed_left == () and core.trimmed_right == ()


def test_cb_decompose_path7():
    g, o = path7()
    d = cb_decompose(g, trim_core(g, o))
    assert [(b.x_side, b.y_side) for b in d.blocks] == [((2,), (1, 3)), ((4,), (5,))]
    assert d.j_sets == ((), ())
    assert d.width == 2


def test_block_markers():
    g, o = path7()
    d = cb_decompose(g, trim_core(g, o))
    first = d.blocks[0]
    assert first.lx == 2 and first.rx == 2
    assert first.ly == 1 and first.ry == 3


def test_fixed_certificates():
    g, o = path7()
    d = cb_decompose(g, trim_core(g, o))
    p = construct_packing(g, d)
    dom = construct_dominating(g, d)
    assert p.vertices == (2, 5) and p.method == "block-leftmost"
    assert dom.vertices == (1, 2, 4, 5) and dom.method == "tight-2k"

    g, o = spider()
    d = cb_decompose(g, trim_core(g, o))
    assert [(b.x_side, b.y_side) for b in d.blocks] == [((1,), (3, 4, 5))]
    p = construct_packing(g, d)
    dom = construct_dominating(g, d)
    assert p.vertices == (0, 2) and p.method == "endpoints"
    assert dom.vertices == (1, 3, 5) and dom.method == "k1-far"

    g = gen_complete_bipartite(2, 3)
    o = ConvexOrdering((0, 1), (2, 3, 4))
    d = cb_decompose(g, trim_core(g, o))
    p = construct_packing(g, d)
    dom = construct_dominating(g, d)
    assert p.vertices == (0,) and p.method == "block-leftmost"
    assert dom.vertices == (0, 2) and dom.method == "k1-near"


# seeds chosen so each constructor branch appears at least once
BRANCH_SEEDS = {
    "block-leftmost": (0, 2, 2),
    "endpoints": (4, 6, 2),
    "flank-j1": (20, 4, 4),
    "tail-xn": (32, 7, 5),
}
DOM_SEEDS = {
    "k1-near": (0, 2, 2),
    "k1-far": (4, 6, 2),
    "loose-2k2": (20, 4, 4),
    "tight-2k": (13, 6, 3),
}


def test_packing_branches():
    for method, (seed, nx_, ny_) in BRANCH_SEEDS.items():
        g, o = gen_random_biconvex(nx_, ny_, seed)
        d = cb_decompose(g, trim_core(g, o))
        p = construct_packing(g, d)
        assert p.method == method
        assert is_packing(g, p.vertices)
        assert len(p.vertices) <= brute_rho(g)


def test_dominating_branches():
    for method, (seed, nx_, ny_) in DOM_SEEDS.items():
        g, o = gen_random_biconvex(nx_, ny_, seed)
        d = cb_decompose(g, trim_core(g, o))
        dom = construct_dominating(g, d)
        assert dom.method == method
        assert is_dominating(g, dom.vertices)
        assert len(dom.vertices) >= brute_gamma(g)


def test_certificate_sizes_match_width():
    for seed in range(60):
        g, o = gen_random_biconvex(2 + seed % 8, 2 + (seed // 8) % 8, seed)
        d = cb_decompose(g, trim_core(g, o))
        k = d.width
        p = construct_packing(g, d)
        dom = construct_dominating(g, d)
        if p.method in ("flank-j1", "tail-xn", "tail-xn-swapped"):
            assert len(p.vertices) == k + 1
        elif p.method == "endpoints":
            assert k == 1 and len(p.vertices) == 2
        else:
            assert len(p.vertices) == k
        if dom.method == "tight-2k":
            assert len(dom.vertices) == 2 * k
        elif dom.method == "loose-2k2":
            assert len(dom.vertices) <= 2 * k + 2
        else:
            assert k == 1 and len(dom.vertices) <= 4
        assert len(dom.vertices) <= 2 * len(p.vertices)


def test_decomposition_invariants():
    for seed in range(60):
        g, o = gen_random_biconvex(2 + seed % 9, 2 + (seed // 9) % 7, 1000 + seed)
        d = cb_decompose(g, trim_core(g, o))
        for i, blk in enumerate(d.blocks):
            # complete bipartite inside the block
            for x in blk.x_side:
                for y in blk.y_side:
                    assert g.has_edge(x, y)
            js = d.j_sets[i]
            if js:
                side = d.j_sides[i]
                assert side in ("x", "y")
                block_vertices = set(blk.x_side) | set(blk.y_side)
                for v in js:
                    assert set(g.neighbors(v)) & block_vertices


def test_certificates_bracket_brute_force():
    for seed in range(60):
        g, o = gen_random_biconvex(2 + seed % 8, 2 + (seed // 8) % 8, 2000 + seed)
        d = cb_decompose(g, trim_core(g, o))
        p = construct_packing(g, d)
        dom = construct_dominating(g, d)
        gamma, rho = brute_gamma(g), brute_rho(g)
        assert len(p.vertices) <= rho
        assert gamma <= len(dom.vertices)
        assert len(dom.vertices) <= 2 * len(p.vertices)
        assert gamma <= 2 * rho


def test_check_biconvex_bound_records():
    g, o = path7()
    _, records = certify_biconvex(g, o, "p7")
    assert [r.check for r in records] == [
        "gamma-le-2rho", "certified-gamma-le-2rho", "certificates-bracket"]
    assert all(r.holds for r in records)
    assert records[0].gamma == 3 and records[0].rho == 3
    details = records[2].details
    assert details["width"] == 2
    assert details["pack_method"] == "block-leftmost"


def test_check_biconvex_bound_single_vertex():
    g = Graph.from_edges(1, [])
    _, records = certify_biconvex(g, ConvexOrdering((0,), ()), "k1")
    assert all(r.holds for r in records)


def test_single_vertex_records_are_pinned():
    # the exact record carries no details, the certified one the singleton
    # certificates, and there is no bracket
    _, records = certify_biconvex(Graph.from_edges(1, []),
                                  ConvexOrdering((0,), ()), "k1")
    base = {"graph_id": "k1", "family": "biconvex", "n": 1,
            "kind": "theorem", "holds": True, "bound": "2", "gamma": 1,
            "rho": 1}
    assert [r.as_dict() for r in records] == [
        {**base, "check": "gamma-le-2rho", "details": {}},
        {**base, "check": "certified-gamma-le-2rho",
         "details": {"pack_size": 1, "dom_size": 1,
                     "pack_method": "singleton", "dom_method": "singleton",
                     "width": 0}},
    ]


def test_single_vertex_ordering_is_validated():
    # the ordering must name the lone vertex, as for every other order
    with pytest.raises(ValueError):
        certify_biconvex(Graph.from_edges(1, []),
                         ConvexOrdering((5, 9), (3,)))


# ------------------------------------------------ the tail-vertex defect ----
#
# construct_packing rejects a right flank vertex whose neighbors all lie in
# an earlier block than the last: on the tree 0-3, 0-4, 1-4, 1-5, 2-4 in
# natural orders, x2's one neighbor y4 is in block 1, not among block 2's
# leftovers.  The other commands handle it (gamma = rho = 3); the paper's
# rule for such a flank vertex is missing.

TAIL_MESSAGE = "tail vertex reaches past the last leftover set"


def _small_biconvex(most):
    """Every connected biconvex graph with 1..`most` vertices a side, X
    first, whose neighborhoods are intervals in the natural orders."""
    for a in range(1, most + 1):
        for b in range(1, most + 1):
            spans = [(lo, hi) for lo in range(b) for hi in range(lo, b)]
            for picks in product(spans, repeat=a):
                edges = [(x, a + y) for x, (lo, hi) in enumerate(picks)
                         for y in range(lo, hi + 1)]
                g = Graph.from_edges(a + b, edges)
                try:
                    validate_convex(g, ConvexOrdering(tuple(range(a)),
                                                      tuple(range(a, a + b))))
                except ValueError:
                    continue
                if g.is_connected():
                    yield g, tuple(range(a)), tuple(range(a, a + b))


def test_certificates_bracket_every_small_input_or_hit_the_tail_defect():
    # 1710 graphs, each under the four orientations of its two orders
    tails = inputs = 0
    for g, xs, ys in _small_biconvex(4):
        gamma, rho = (s.value for s in solve_pair(g))
        for o in (ConvexOrdering(xs, ys), ConvexOrdering(xs[::-1], ys),
                  ConvexOrdering(xs, ys[::-1]),
                  ConvexOrdering(xs[::-1], ys[::-1])):
            inputs += 1
            d = cb_decompose(g, trim_core(g, o))
            try:
                pack = construct_packing(g, d)
            except CertificateError as e:
                assert str(e) == TAIL_MESSAGE
                tails += 1
                continue
            dom = construct_dominating(g, d)
            assert len(pack.vertices) <= rho
            assert gamma <= len(dom.vertices) <= 2 * len(pack.vertices)
    assert (inputs, tails) == (6840, 480)
