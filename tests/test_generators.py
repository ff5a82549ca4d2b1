from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import to_nx
from gammarho import generators
from gammarho.biconvex import validate_convex
from gammarho.bicubic import validate_bicubic
from gammarho.formats import encode_graph6
from gammarho.generators import (
    _bicubic_canonical,
    _connected_isomorphic,
    enumerate_bicubic,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_rook,
    gen_star,
    gen_sun,
    gen_tight_family,
    generalized_petersen,
    heawood,
    petersen,
)
from gammarho.graphs import CertificateError, Graph
from gammarho.outerplanar import recognize_mop
from gammarho.solvers import brute_gamma, brute_rho, domination_number, packing_number


def test_elementary_families():
    assert gen_path(5).m == 4
    assert gen_cycle(5).m == 5
    assert gen_complete(5).m == 10
    assert gen_complete_bipartite(2, 3).m == 6
    star = gen_star(5)
    assert star.m == 4 and star.degree(0) == 4
    with pytest.raises(ValueError):
        gen_cycle(2)


def test_named_graphs_isomorphic_to_references():
    assert nx.is_isomorphic(to_nx(petersen()), nx.petersen_graph())
    assert nx.is_isomorphic(to_nx(heawood()), nx.heawood_graph())
    assert nx.is_isomorphic(to_nx(generalized_petersen(10, 3)), nx.desargues_graph())
    rook = nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4))
    assert nx.is_isomorphic(to_nx(gen_rook(4)), rook)


def test_generalized_petersen_shape():
    g = generalized_petersen(7, 2)
    assert g.n == 14 and g.is_regular(3)
    with pytest.raises(ValueError):
        generalized_petersen(2, 1)


def test_sun_is_a_mop():
    g = gen_sun()
    t = recognize_mop(g)
    assert len(t.triangles) == 4


def test_random_trees():
    for seed in range(30):
        g = gen_random_tree(3 + seed % 20, seed)
        assert g.is_tree()
    a = gen_random_tree(15, 7)
    assert encode_graph6(a) == encode_graph6(gen_random_tree(15, 7))
    assert encode_graph6(a) != encode_graph6(gen_random_tree(15, 8))


def test_random_connected():
    sizes = set()
    for seed in range(30):
        n = 4 + seed % 9
        g = gen_random_connected(n, seed)
        assert g.n == n and g.is_connected()
        sizes.add(g.m)
    assert len(sizes) > 3  # the density actually varies
    assert encode_graph6(gen_random_connected(9, 5)) == \
        encode_graph6(gen_random_connected(9, 5))


def test_random_mops():
    shapes = set()
    for seed in range(30):
        n = 4 + seed % 13
        g = gen_random_mop(n, seed)
        assert g.m == 2 * n - 3
        recognize_mop(g)
        if n == 7:
            shapes.add(encode_graph6(g))
    assert len(shapes) >= 2  # more than one triangulation gets sampled
    assert encode_graph6(gen_random_mop(12, 3)) == \
        encode_graph6(gen_random_mop(12, 3))


def test_random_bicubic():
    for seed in range(10):
        n = 16 + 2 * (seed % 5)
        g = gen_random_bicubic(n, seed)
        assert g.n == n
        validate_bicubic(g)
    assert encode_graph6(gen_random_bicubic(18, 2)) == \
        encode_graph6(gen_random_bicubic(18, 2))
    with pytest.raises(ValueError):
        gen_random_bicubic(7, 0)
    with pytest.raises(ValueError):
        gen_random_bicubic(4, 0)


def test_random_biconvex():
    for seed in range(40):
        nx_ = 2 + seed % 8
        ny_ = 2 + (seed // 8) % 8
        g, ordering = gen_random_biconvex(nx_, ny_, seed)
        assert g.n == nx_ + ny_
        assert g.is_connected()
        validate_convex(g, ordering)
    g1, o1 = gen_random_biconvex(6, 5, 9)
    g2, o2 = gen_random_biconvex(6, 5, 9)
    assert encode_graph6(g1) == encode_graph6(g2) and o1 == o2


def test_random_biconvex_self_check_errors_surface(monkeypatch):
    # a CertificateError from the decomposition is an implementation bug,
    # never a reason to draw again
    def broken(g, core):
        raise CertificateError("forced failure")

    monkeypatch.setattr(generators, "cb_decompose", broken)
    with pytest.raises(CertificateError, match="forced failure"):
        gen_random_biconvex(6, 5, 9)


def test_tight_family_exact_values():
    for k in range(1, 7):
        g, ordering = gen_tight_family(k)
        assert g.n == 4 * k and g.m == 4 * k
        validate_convex(g, ordering)
        assert len(g.components()) == k
        assert domination_number(g).value == 2 * k
        assert packing_number(g).value == k
        if k <= 4:
            assert brute_gamma(g) == 2 * k
            assert brute_rho(g) == k
    with pytest.raises(ValueError):
        gen_tight_family(0)


def test_enumerate_bicubic_is_deterministic():
    a = [encode_graph6(g) for g in enumerate_bicubic(10)]
    b = [encode_graph6(g) for g in enumerate_bicubic(10)]
    assert a == b and len(a) == 2


# enumerate_bicubic(n) as graph6, in order, from the original version that
# canonicalised every labelled candidate; the output must never change
ENUMERATED_G6 = {
    6: ["EFz_"],
    8: ["G?]uf?"],
    10: ["I??xuROw?", "I??ytROw?"],
    12: ["K???wwksF?[?", "K???wxciE_[?", "K???xXSiE_[?", "K???xXSkEO[?",
         "K???xXokEGX?"],
    14: ["M????[MD`oY?w?w??", "M????[MDbOU?s?w??", "M????[MK`gX?s?w??",
         "M????[MKagR?w?w??", "M????[MKagT?s?w??", "M????[UEbGT?s?w??",
         "M????[UIagT?s?w??", "M????[UIagU?q?w??", "M????[UIaoU?p?w??",
         "M????[UIb_U?p?q??", "M????[UMBCS_q?s??", "M????[UMBCT?p?s??",
         "M????[qTBOR?h?o_?"],
}


def test_enumerate_bicubic_output_is_pinned():
    for n, expected in ENUMERATED_G6.items():
        assert [encode_graph6(g) for g in enumerate_bicubic(n)] == expected


def _permutation_canonical(rows: tuple[int, ...], m: int) -> tuple:
    """The original canonical form, kept here as the oracle of
    _bicubic_canonical: the least sorted tuple of column vectors over the
    matrix, its transpose and every row permutation."""

    def transpose(rs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(((rs[i] >> j) & 1) << i for i in range(m)) for j in range(m)
        )

    best = None
    for mat in (rows, transpose(rows)):
        for perm in permutations(range(m)):
            permuted = [mat[p] for p in perm]
            cols = tuple(sorted(
                tuple((permuted[i] >> j) & 1 for i in range(m))
                for j in range(m)
            ))
            if best is None or cols < best:
                best = cols
    return best


def _forms_of_every_labelled_candidate(n: int) -> set:
    """The original method: every nondecreasing row multiset with column
    sums 3 that gives a connected graph, canonicalised one by one by the
    original permutation scan."""
    m = n // 2
    row_types = [sum(1 << c for c in combo) for combo in combinations(range(m), 3)]
    forms = set()

    def extend(start: int, chosen: list[int]) -> None:
        sums = [sum((r >> j) & 1 for r in chosen) for j in range(m)]
        if len(chosen) == m:
            g = Graph.from_edges(n, [(i, m + j) for i, r in enumerate(chosen)
                                     for j in range(m) if (r >> j) & 1])
            if all(s == 3 for s in sums) and g.is_connected():
                forms.add(_permutation_canonical(tuple(chosen), m))
            return
        if any(s > 3 or 3 - s > m - len(chosen) for s in sums):
            return
        for idx in range(start, len(row_types)):
            extend(idx, chosen + [row_types[idx]])

    extend(0, [])
    return forms


def _rows(g: Graph) -> tuple[int, ...]:
    """The biadjacency matrix of a bicubic graph with sides 0..m-1 and
    m..2m-1, rows as bitmasks."""
    m = g.n // 2
    return tuple(sum(1 << (u - m) for u in g.neighbors(i)) for i in range(m))


def test_enumerate_bicubic_matches_per_candidate_canonicalisation():
    for n in (6, 8, 10):
        m = n // 2
        rows = [_rows(g) for g in enumerate_bicubic(n)]
        expected = _forms_of_every_labelled_candidate(n)
        assert {_bicubic_canonical(r, m) for r in rows} == expected
        assert len(rows) == len(expected)


def _draw_relabelling(data, rows: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The matrix with drawn row and column permutations, then transposed
    (its sides swapped) if a drawn flag says so."""
    row_perm = data.draw(st.permutations(range(m)))
    col_perm = data.draw(st.permutations(range(m)))
    out = tuple(sum(((rows[row_perm[i]] >> col_perm[j]) & 1) << j
                    for j in range(m)) for i in range(m))
    if data.draw(st.booleans()):
        out = tuple(sum(((out[i] >> j) & 1) << i for i in range(m))
                    for j in range(m))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_matches_the_permutation_scan(data):
    m = data.draw(st.integers(3, 6))
    g = gen_random_bicubic(2 * m, data.draw(st.integers(0, 10**6)))
    rows = _draw_relabelling(data, _rows(g), m)
    assert _bicubic_canonical(rows, m) == _permutation_canonical(rows, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_is_invariant_beyond_the_oracle(data):
    m = data.draw(st.sampled_from([7, 8]))
    rows = _rows(gen_random_bicubic(2 * m, data.draw(st.integers(0, 10**6))))
    relabelled = _draw_relabelling(data, rows, m)
    assert _bicubic_canonical(relabelled, m) == _bicubic_canonical(rows, m)


def _relabel(g: Graph, perm: list[int], swap_sides: bool) -> Graph:
    half = g.n // 2
    shift = half if swap_sides else 0
    image = [perm[(v + shift) % g.n] for v in range(g.n)]
    return Graph.from_edges(g.n, [(image[u], image[v]) for u, v in g.edges()])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_isomorphism_helper_accepts_relabelled_copies(data):
    n = data.draw(st.sampled_from([6, 8, 10, 12, 14, 16]))
    g = gen_random_bicubic(n, data.draw(st.integers(0, 10**6)))
    perm = data.draw(st.permutations(range(n)))
    h = _relabel(g, perm, data.draw(st.booleans()))
    assert _connected_isomorphic(g, h) and _connected_isomorphic(h, g)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([8, 10, 12, 14]), st.integers(0, 10**6),
       st.integers(0, 10**6))
def test_isomorphism_helper_agrees_with_networkx(n, seed_a, seed_b):
    g = gen_random_bicubic(n, seed_a)
    h = gen_random_bicubic(n, seed_b)
    assert _connected_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))


# gen_random_mop(n, seed) as graph6 from the original recursive sampler
MOP_G6 = {
    (3, 0): "Bw",
    (10, 1): "IhCGZs@oW",
    (25, 7): "Xh^GGCB?G?_@?@?B_?G?@??C?Xw??G?_KAo@`_?G???_??B_??D",
    (42, 3): "ihCWgcPCG?_@?@??_@w?@?EK??G?_X__C_?@???G??@_??@???B????_??@W???PW"
             "??IC????G????W????T????Ho????K?????_????@?????@?????Bo????@K?????"
             "@_?????E??????G",
    (42, 11): "inCWGC@?GB_x?@??_?G?@??[?BG?KG?GC?C@???G???_??@???@???@_???g???X"
              "???AC????G????G????[????@?????G?????_????B?????L?????W_?????GgG@"
              "oQBc?????E??????G",
}


def test_random_mop_output_is_pinned():
    for (n, seed), expected in MOP_G6.items():
        assert encode_graph6(gen_random_mop(n, seed)) == expected


def test_random_mop_beyond_42_vertices():
    for n, seed in ((43, 0), (44, 5), (120, 2)):
        g = gen_random_mop(n, seed)
        assert g.m == 2 * n - 3
        recognize_mop(g)
    big = gen_random_mop(3000, 1)
    assert big.n == 3000 and big.m == 2 * 3000 - 3 and big.is_connected()
