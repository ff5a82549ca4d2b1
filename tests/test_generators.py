"""Generators against their references, and enumerate_bicubic pinned.

Run this file as a script (`PYTHONPATH=src python tests/test_generators.py`)
to print, for each order n = 6-16, the orderly generator's candidates
visited, the candidates kept, the classes and the seconds of
enumerate_bicubic(n): counts first, since they repeat exactly on any
machine, then seconds.
"""

import functools
import time
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
    _bicubic_candidates,
    _bicubic_canonical,
    _orderly_form,
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
# canonicalised every labelled candidate (n = 16 from the bucketed labelled
# search with its order check lifted); the output must never change
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
    16: ["O?????F@oUB_M?s?[?F??", "O?????F@oUB_Y?k?Y?F??", "O?????F@oUE_M?q?Y?F??",
         "O?????F@oUE_U?i?Y?F??", "O?????F@oUE_U?k?X?F??", "O?????F@oUE_[?k?X?EO?",
         "O?????F@oqBOX?i?Y?F??", "O?????F@oqDOL?q?Y?F??", "O?????F@oqDOM?p?Y?F??",
         "O?????F@oqDOR?k?Y?F??", "O?????F@oqDOT?e?[?F??", "O?????F@oqDOT?i?Y?F??",
         "O?????F@oqDOT?k?X?F??", "O?????F@oqDOU?k?W_F??", "O?????F@oqDO[?k?W_EO?",
         "O?????FAoYAoY?k?Y?F??", "O?????FAoYEOT?i?Y?F??", "O?????FAoiDOT?i?Y?F??",
         "O?????FAoiDOT?k?X?F??", "O?????FAoiDOU?h?Y?F??", "O?????FAoiDOU?k?W_F??",
         "O?????FAoiDO[?k?W_EO?", "O?????FAoiD_S_k?X?F??", "O?????FAoiD_U?k?WOF??",
         "O?????FAoiD_Y?k?WOE_?", "O?????FAoiD_[?k?WOEO?", "O?????FAoiF?U?g_W_F??",
         "O?????FAoiF?W_h?X?E_?", "O?????FAoiF?W_i?W_E_?", "O?????FAoiF?W_k?W_EO?",
         "O?????FAowD_[?k?WGEC?", "O?????FAowEGW_h?X?E_?", "O?????FAowEGW_k?W_EO?",
         "O?????FAowEGX?i?WOE_?", "O?????FAowEGX?k?WOEO?", "O?????FApaI_U?h?T?EC?",
         "O?????FApaI_Y?e?S_EC?", "O?????FEPSH_[?c_S_EA?"],
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


def _forms_of_every_labelled_candidate(n: int, canonical) -> set:
    """The original method: every nondecreasing row multiset with column
    sums 3 that gives a connected graph, canonicalised one by one by
    `canonical`."""
    m = n // 2
    row_types = [sum(1 << c for c in combo) for combo in combinations(range(m), 3)]
    forms = set()

    def extend(start: int, chosen: list[int]) -> None:
        sums = [sum((r >> j) & 1 for r in chosen) for j in range(m)]
        if len(chosen) == m:
            g = Graph.from_edges(n, [(i, m + j) for i, r in enumerate(chosen)
                                     for j in range(m) if (r >> j) & 1])
            if all(s == 3 for s in sums) and g.is_connected():
                forms.add(canonical(tuple(chosen), m))
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
    # the permutation scan up to n = 10; at n = 12 the labelled search
    # alone is the oracle, canonicalised per candidate
    for n, canonical in ((6, _permutation_canonical),
                         (8, _permutation_canonical),
                         (10, _permutation_canonical),
                         (12, _bicubic_canonical)):
        m = n // 2
        rows = [_rows(g) for g in enumerate_bicubic(n)]
        expected = _forms_of_every_labelled_candidate(n, canonical)
        assert {canonical(r, m) for r in rows} == expected
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


@functools.cache
def _candidates(m: int) -> frozenset:
    return frozenset(_bicubic_candidates(m))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_forms_are_orderly_candidates(data):
    # the completeness argument of enumerate_bicubic: for its column order
    # the least reading has the rows in ascending order, and its columns
    # are in ascending order, or a swap would read lower; so every class's
    # form is a candidate, and the one its class keeps
    m = data.draw(st.integers(3, 8))
    g = gen_random_bicubic(2 * m, data.draw(st.integers(0, 10**6)))
    form = _bicubic_canonical(_draw_relabelling(data, _rows(g), m), m)
    matrix = list(zip(*form))
    assert matrix == sorted(matrix) and list(form) == sorted(form)
    assert all(sum(c) == 3 for c in form) and all(sum(r) == 3 for r in matrix)
    rows = tuple(int("".join(map(str, r)), 2) for r in matrix)
    assert rows in _candidates(m)
    assert _orderly_form(rows, m) == [int("".join(map(str, c)), 2) for c in form]


def _reading(rows: tuple[int, ...], m: int) -> tuple:
    """A candidate's column-major reading in _bicubic_canonical's shape."""
    return tuple(tuple((r >> (m - 1 - j)) & 1 for r in rows) for j in range(m))


def test_orderly_test_keeps_exactly_the_canonical_candidates():
    for m in range(3, 7):
        for rows in _bicubic_candidates(m):
            canonical = _reading(rows, m) == _bicubic_canonical(rows, m)
            assert (_orderly_form(rows, m) is not None) == canonical


def _enumeration_counts(n: int) -> tuple[int, int, int]:
    """The candidates visited, the candidates kept (connected or not) and
    the connected ones kept, which are enumerate_bicubic(n)'s classes."""
    m = n // 2
    visited = kept = 0
    for rows in _bicubic_candidates(m):
        visited += 1
        kept += _orderly_form(rows, m) is not None
    return visited, kept, len(enumerate_bicubic(n))


# (visited, kept, classes): the classes are OEIS A006823; the kept
# disconnected candidates are K_{3,3} twice (n = 12), K_{3,3} with the
# cube (14), and K_{3,3} with either n = 10 class or the cube twice (16)
ENUMERATION_COUNTS = {6: (1, 1, 1), 8: (1, 1, 1), 10: (3, 2, 2),
                      12: (25, 6, 5), 14: (272, 14, 13), 16: (4070, 41, 38)}


def test_orderly_generator_keeps_each_class_once():
    for n, counts in ENUMERATION_COUNTS.items():
        assert _enumeration_counts(n) == counts
        graphs = enumerate_bicubic(n)
        assert len({_bicubic_canonical(_rows(g), n // 2) for g in graphs}) \
            == len(graphs) == counts[2]


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


if __name__ == "__main__":
    # deterministic counts first, then seconds for enumerate_bicubic(n)
    for n in ENUMERATION_COUNTS:
        visited, kept, classes = _enumeration_counts(n)
        start = time.perf_counter()
        enumerate_bicubic(n)
        seconds = time.perf_counter() - start
        print(f"n={n}: {visited} visited, {kept} kept, {classes} classes, "
              f"{seconds:.4f} s")
