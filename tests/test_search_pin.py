"""Pins the gamma and rho searches node for node.

The digest below was taken from the recursive searches that the
explicit-stack ones replaced.  It covers value, witness and node count of
every answer, and every field of every BudgetExceeded, over a seeded
corpus, so a change to the branching order, a tie-break or a bound shows
up here even when the values stay right.  Run this file as a script to
print the digest of the code in the working tree.
"""

import hashlib
import json

from hypothesis import given, settings, strategies as st

from gammarho import solvers
from gammarho.graphs import Graph
from gammarho.generators import (
    gen_cycle,
    gen_path,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_rook,
    petersen,
)

PIN_BUDGET = 40_000
PINNED_DIGEST = "7d60a4a6ef0af982d957fcb2677eb0303cdb5e1a46c5f583025f5fff690799a9"


def _disjoint_union(*parts):
    edges, base = [], 0
    for g in parts:
        edges += [(base + u, base + v) for u, v in g.edges()]
        base += g.n
    return Graph.from_edges(base, edges)


def _corpus():
    out = [(f"bicubic-{n}", gen_random_bicubic(n, 7 + n)) for n in range(16, 65, 8)]
    out += [(f"biconvex-{nx}x{ny}", gen_random_biconvex(nx, ny, nx * ny)[0])
            for nx, ny in ((6, 6), (9, 7), (12, 12), (18, 14), (24, 24))]
    out += [(f"connected-{n}", gen_random_connected(n, 300 + n))
            for n in range(10, 41, 6)]
    out += [(f"mop-{n}", gen_random_mop(n, 50 + n)) for n in range(6, 31, 4)]
    out += [(f"cycle-{n}", gen_cycle(n)) for n in (30, 31, 32, 60, 100, 150, 300)]
    out += [("petersen", petersen()), ("rook-5", gen_rook(5))]
    # a tree between two searched components: budget bounds for the whole
    out.append(("union", _disjoint_union(petersen(), gen_path(5), gen_cycle(31))))
    return out


def _outcome(solve, g, budget):
    try:
        s = solve(g, budget)
    except solvers.BudgetExceeded as exc:
        return ["budget", exc.quantity, exc.lower, exc.upper,
                list(exc.witness), exc.nodes]
    return [s.value, list(s.witness), s.nodes]


def search_records():
    """(graph, quantity, budget, outcome) rows over the pinned corpus."""
    rows = []
    corpus = _corpus()
    for name, g in corpus:
        for q, solve in (("gamma", solvers.domination_number),
                         ("rho", solvers.packing_number)):
            rows.append([name, q, PIN_BUDGET, _outcome(solve, g, PIN_BUDGET)])
    small_budget = [c for c in corpus if c[0] in (
        "bicubic-32", "bicubic-64", "biconvex-18x14", "connected-40",
        "mop-30", "cycle-100", "cycle-300", "rook-5", "union")]
    for name, g in small_budget:
        for budget in (1, 50, 5000):
            for q, solve in (("gamma", solvers.domination_number),
                             ("rho", solvers.packing_number)):
                rows.append([name, q, budget, _outcome(solve, g, budget)])
    return rows


def search_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_search_matches_pinned_digest():
    rows = search_records()
    assert search_digest(rows) == PINNED_DIGEST


# The per-node helpers against inline copies of the loops they replaced.


@st.composite
def graph_and_mask(draw):
    n = draw(st.integers(1, 40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v]
    return Graph.from_edges(n, edges), draw(st.integers(0, (1 << n) - 1))


def _old_packing_bound(masks, undominated):
    count = 0
    taken = 0
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if taken & masks[v] == 0:
            taken |= masks[v]
            count += 1
    return count


def _old_min_degree_pick(g, undominated):
    pick = -1
    pick_deg = g.n + 1
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if g.degree(v) < pick_deg:
            pick_deg = g.degree(v)
            pick = v
    return pick


def _old_clique_cover_bound(cmasks, candidates):
    cliques = []
    count = 0
    m = candidates
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        for i, common in enumerate(cliques):
            if common & low:
                cliques[i] = common & cmasks[v]
                break
        else:
            cliques.append(cmasks[v] & ~low)
            count += 1
    return count


def _old_max_conflict_pick(cmasks, candidates):
    pick = -1
    pick_deg = -1
    m = candidates
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        d = (cmasks[v] & candidates).bit_count() - 1
        if d > pick_deg:
            pick_deg = d
            pick = v
    return pick


@settings(max_examples=300, deadline=None)
@given(graph_and_mask(), st.integers(0, 12))
def test_packing_bound_matches_the_greedy_scan(case, cap):
    g, undominated = case
    old = _old_packing_bound(g.closed_masks, undominated)
    near = solvers._conflict_masks(g)
    assert solvers._packing_bound(near, undominated, g.n) == old
    assert solvers._packing_bound(near, undominated, cap) == min(old, cap)


@settings(max_examples=300, deadline=None)
@given(graph_and_mask())
def test_degree_classes_pick_the_min_degree_vertex(case):
    g, undominated = case
    if undominated:
        classes = solvers._degree_classes(map(len, g.adj))
        low = next(c & undominated for _, c in classes if c & undominated)
        assert low & -low == 1 << _old_min_degree_pick(g, undominated)


@settings(max_examples=300, deadline=None)
@given(graph_and_mask(), st.integers(0, 12), st.booleans())
def test_clique_chains_match_the_first_fit_cover(case, cap, conflict):
    # any graph's closed masks are a conflict relation too
    g, candidates = case
    near = solvers._conflict_masks(g) if conflict else list(g.closed_masks)
    old = _old_clique_cover_bound(near, candidates)
    assert solvers._clique_cover_bound(near, candidates, g.n) == old
    assert solvers._clique_cover_bound(near, candidates, cap) == min(old, cap)


@settings(max_examples=300, deadline=None)
@given(graph_and_mask(), st.booleans())
def test_conflict_classes_pick_the_max_conflict_candidate(case, conflict):
    g, candidates = case
    near = solvers._conflict_masks(g) if conflict else list(g.closed_masks)
    classes = solvers._degree_classes(m.bit_count() - 1 for m in near)[::-1]
    if candidates:
        assert solvers._max_conflict_pick(near, classes, candidates) == (
            _old_max_conflict_pick(near, candidates))


if __name__ == "__main__":
    rows = search_records()
    for row in rows:
        out = row[3]
        print(row[0], row[1], row[2], out[:1] + out[2:] if out[0] == "budget"
              else [out[0], out[2]])
    print(search_digest(rows))
