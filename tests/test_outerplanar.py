import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gammarho import triangulation
from gammarho.generators import gen_complete_bipartite, gen_cycle, gen_path, gen_random_mop, gen_sun
from gammarho.graphs import (
    CertificateError,
    Graph,
    bfs_tree,
    is_dominating,
    is_packing,
)
from gammarho.outerplanar import (
    DualTree,
    NotMaximalOuterplanar,
    averaged_dominating,
    build_clique_graph,
    build_dual,
    certify_mop,
    clique_graph_numbers,
    lift_packing,
    low_degree_count,
    project_dominating,
    recognize_mop,
    tokunaga_color,
    verify_tokunaga,
)
from gammarho.triangulation import (
    _CLOSE,
    _IN,
    _INF,
    _NO_CHILD,
    _STEP,
    _walk,
    _walk_dp,
)
from gammarho.solvers import (
    DEFAULT_BUDGET,
    brute_gamma,
    brute_rho,
    domination_number,
    packing_number,
    solve_pair,
)


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


def test_walk_rejects_a_dual_that_is_not_a_tree():
    # the sun's dual is the star 2-{0, 1, 3}; drop the edge 2-3, then also
    # put 0-1 in its place: one edge short, then k - 1 edges with a cycle
    # and triangle 3 unreached
    t = recognize_mop(gen_sun())
    short = DualTree(((2,), (2,), (0, 1), ()), {(0, 2): (1, 5), (1, 2): (1, 3)})
    cyclic = DualTree(((1, 2), (0, 2), (0, 1), ()),
                      {(0, 1): (1, 5), (0, 2): (1, 5), (1, 2): (1, 3)})
    for dual in (short, cyclic):
        with pytest.raises(CertificateError, match="triangle dual is not a tree"):
            _walk(t, dual)


def test_dual_is_tree_on_corpus():
    for g in mop_corpus():
        t = recognize_mop(g)
        dual = build_dual(t)
        assert Graph(len(t.triangles), dual.adj).is_tree()
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
    colors = tokunaga_color(t)
    assert colors == (0, 1, 0, 3, 0, 2)
    assert verify_tokunaga(t, colors) == []
    t2 = recognize_mop(FAN6)
    colors2 = tokunaga_color(t2)
    assert verify_tokunaga(t2, colors2) == []
    assert len(set(colors2)) <= 4


def test_tokunaga_on_corpus_and_corruption():
    for g in mop_corpus():
        t = recognize_mop(g)
        colors = tokunaga_color(t)
        assert verify_tokunaga(t, colors) == []
        # proper on edges
        for u, v in g.edges():
            assert colors[u] != colors[v]
        # corrupt one vertex: the checker must notice
        broken = list(colors)
        broken[t.triangles[0][0]] = (broken[t.triangles[0][0]] + 1) % 4
        assert verify_tokunaga(t, tuple(broken)) != []


def test_low_degree_count():
    assert low_degree_count(gen_sun()) == 3
    assert low_degree_count(gen_cycle(3)) == 3
    assert low_degree_count(FAN6) == 5  # all but the apex


def test_project_and_average_dominate():
    for g in mop_corpus():
        t = recognize_mop(g)
        cg = build_clique_graph(t)
        cg_gamma = domination_number(cg)
        projected = project_dominating(t, cg_gamma.witness)
        assert is_dominating(g, projected)
        assert len(projected) <= 3 * cg_gamma.value
        averaged = averaged_dominating(t, projected)
        assert is_dominating(g, averaged)
        assert 4 * len(averaged) <= 3 * len(projected) + low_degree_count(g)


def test_lift_packing_preserves_size():
    for g in mop_corpus():
        t = recognize_mop(g)
        cg_rho = packing_number(build_clique_graph(t))
        lifted = lift_packing(t, cg_rho.witness)
        assert len(lifted) == cg_rho.value
        assert is_packing(g, lifted)



def _former_lift_packing(t, z):
    """`lift_packing` as it was, with its search for the separator edges
    toward the root's nearest Z-descendants; the assertion is the claim
    that this search never meets the root's triangle."""
    z_t = tuple(sorted(set(z)))
    root = z_t[0]
    order, parent = bfs_tree(t.dual.adj, root)
    children = [[] for _ in t.triangles]
    for v in order[1:]:
        children[parent[v]].append(v)
    zset = set(z_t)
    lifted = []
    for u in z_t:
        if u == root:
            avoid = set()
            stack = list(children[root])
            while stack:
                q = stack.pop()
                if q in zset:
                    avoid.update(t.dual.shared[min(q, parent[q]),
                                              max(q, parent[q])])
                else:
                    stack.extend(children[q])
            assert not avoid & set(t.triangles[root])
            candidates = [v for v in t.triangles[root] if v not in avoid]
            lifted.append(min(candidates) if candidates
                          else min(t.triangles[root]))
        else:
            eu, ev = t.dual.shared[min(u, parent[u]), max(u, parent[u])]
            (c,) = [v for v in t.triangles[u] if v not in (eu, ev)]
            lifted.append(c)
    return tuple(sorted(lifted))


def _random_maximal_packing(g, seed):
    order = list(range(g.n))
    random.Random(seed).shuffle(order)
    taken, packing = 0, []
    for v in order:
        if not taken & g.closed_masks[v]:
            taken |= g.closed_masks[v]
            packing.append(v)
    return packing


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 80), st.integers(0, 10**6), st.booleans())
def test_lift_packing_matches_the_former_search(n, seed, relabel):
    # the root's separator search is dead for any packing of the clique
    # graph, not only the host-tree one
    g = gen_random_mop(n, seed)
    if relabel:
        g = _relabeled(g, seed)
    t = recognize_mop(g)
    for z in (clique_graph_numbers(t)[1].witness,
              _random_maximal_packing(t.clique_graph, seed)):
        assert lift_packing(t, z) == _former_lift_packing(t, z)

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


def _certified_numbers(g):
    """gamma and rho of the mop g and of its clique graph, from one
    triangulation: each came without search, with a witness of the
    reported size that checks out."""
    t = recognize_mop(g)
    gamma, rho = solve_pair(g, DEFAULT_BUDGET, t)
    cg_gamma, cg_rho = clique_graph_numbers(t)
    cg = t.clique_graph
    for res, graph, valid in ((gamma, g, is_dominating),
                              (rho, g, is_packing),
                              (cg_gamma, cg, is_dominating),
                              (cg_rho, cg, is_packing)):
        assert res.nodes == 0
        assert len(res.witness) == res.value
        assert valid(graph, res.witness)
    assert cg_gamma.value == cg_rho.value
    return t, gamma, rho, cg_gamma, cg_rho


def test_triangulation_shares_one_build_with_every_consumer():
    for s, g in enumerate(mop_corpus()):
        t, gamma, rho, cg_gamma, cg_rho = _certified_numbers(g)
        assert t == recognize_mop(g)
        assert t.dual.adj == build_dual(t).adj
        assert t.dual.shared == build_dual(t).shared
        assert t.clique_graph == build_clique_graph(t)
        assert tokunaga_color(t) == _walk(t, build_dual(t))[2]
        # the same values as search
        cg = t.clique_graph
        assert gamma.value == domination_number(g).value
        assert rho.value == packing_number(g).value
        assert cg_gamma.value == domination_number(cg).value
        assert cg_rho.value == packing_number(cg).value
        assert verify_tokunaga(t, tokunaga_color(t)) == []
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


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 20), st.integers(0, 10**6))
def test_walk_matches_brute_force(n, seed):
    g = gen_random_mop(n, seed)
    t, gamma, rho, cg_gamma, _ = _certified_numbers(g)
    cg = t.clique_graph
    assert (gamma.value, rho.value) == (brute_gamma(g), brute_rho(g))
    assert cg_gamma.value == brute_gamma(cg) == brute_rho(cg)


@pytest.mark.parametrize("n, seed", [(20, 1), (24, 7), (29, 3), (33, 12),
                                     (38, 5), (42, 2), (47, 9), (53, 4),
                                     (60, 8)])
def test_walk_matches_search(n, seed):
    g = gen_random_mop(n, seed)
    t, gamma, rho, cg_gamma, _ = _certified_numbers(g)
    assert gamma.value == domination_number(g).value
    assert rho.value == packing_number(g).value
    assert cg_gamma.value == domination_number(t.clique_graph).value


def test_walk_edge_cases():
    # a lone triangle; n = 4, whose clique graph is K2; a fan, whose
    # clique graph is complete
    for g, values in ((gen_cycle(3), (1, 1, 1)),
                      (gen_random_mop(4, 0), (1, 1, 1)),
                      (FAN6, (1, 1, 1))):
        _, gamma, rho, _, cg_rho = _certified_numbers(g)
        assert (gamma.value, rho.value, cg_rho.value) == values
    assert recognize_mop(FAN6).clique_graph.m == 6
    assert recognize_mop(gen_random_mop(4, 0)).clique_graph.m == 1


def test_clique_graph_numbers_do_not_depend_on_which_consumer_walks_first():
    # the pair solve and the clique graph's numbers share t's walk; either
    # may build it, with the same answers
    for g in mop_corpus():
        t = recognize_mop(g)
        first = clique_graph_numbers(t)
        pair = solve_pair(g, DEFAULT_BUDGET, t)
        t2 = recognize_mop(g)
        assert solve_pair(g, DEFAULT_BUDGET, t2) == pair
        assert clique_graph_numbers(t2) == first


def _all_rows_walk_dp(order, frames, dominate):
    """`_walk_dp` without its memo: every `_STEP` row at every triangle,
    with `_NO_CHILD` for an absent child.  A reference for the memoized
    programme, which must give the same size and members."""
    tables = [None] * len(frames)
    picks = [None] * len(frames)
    for i in reversed(order):
        _, _, _, left, right = frames[i]
        lt = _NO_CHILD if left < 0 else tables[left]
        rt = _NO_CHILD if right < 0 else tables[right]
        best = [_INF] * 9
        pick = [None] * 9
        for row in _STEP[dominate]:
            v = lt[row[0]] + rt[row[1]] + row[3]
            if v < best[row[2]]:
                best[row[2]] = v
                pick[row[2]] = row
        tables[i] = best
        picks[i] = pick
    root = order[0]
    k, cost = min(_CLOSE[dominate], key=lambda kc: tables[root][kc[0]] + kc[1])
    size = tables[root][k] + cost
    p1, p2 = frames[root][:2]
    chosen = [v for v, s in ((p1, k // 3), (p2, k % 3)) if s == _IN]
    need = [0] * len(frames)
    need[root] = k
    for i in order:
        _, _, c, left, right = frames[i]
        il, ir, _, _ = picks[i][need[i]]
        if il % 3 == _IN:
            chosen.append(c)
        if left >= 0:
            need[left] = il
        if right >= 0:
            need[right] = ir
    return (size if dominate else -size), tuple(sorted(chosen))


def _assert_memo_matches_row_loop(g):
    t = recognize_mop(g)
    order, frames, _ = t.walk
    for dominate in (True, False):
        assert _walk_dp(order, frames, dominate) == _all_rows_walk_dp(
            order, frames, dominate)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 60), st.integers(0, 10**6))
def test_memoized_walk_matches_the_row_loop(n, seed):
    _assert_memo_matches_row_loop(gen_random_mop(n, seed))


def test_memoized_walk_matches_the_row_loop_on_a_large_mop():
    _assert_memo_matches_row_loop(gen_random_mop(2000, 1))
    _assert_memo_matches_row_loop(FAN6)


def test_memo_stays_within_its_cap():
    # 10^4 walks of mops with n = 3..60; the memo is shared across graphs
    # and cleared before a walk that could take it past the cap, which
    # these walks reach several times
    memo = triangulation._MEMO
    rng = random.Random(5)
    cleared = 0
    for i in range(10_000):
        t = recognize_mop(gen_random_mop(rng.randint(3, 60), i))
        order, frames, _ = t.walk
        before = len(memo.steps)
        _walk_dp(order, frames, True)
        _walk_dp(order, frames, False)
        cleared += len(memo.steps) < before
        assert len(memo.steps) <= triangulation.MEMO_CAP
        assert len(memo.kept) <= 2 * len(memo.steps)
    assert cleared > 0


def test_a_small_cap_clears_the_memo_and_keeps_the_answers(monkeypatch):
    monkeypatch.setattr(triangulation, "MEMO_CAP", 40)
    triangulation._MEMO.clear()
    cleared = 0
    for seed in range(200):
        g = gen_random_mop(3 + seed % 30, seed)
        before = len(triangulation._MEMO.steps)
        _assert_memo_matches_row_loop(g)
        after = len(triangulation._MEMO.steps)
        cleared += after < before
        assert after <= 40
    assert cleared > 0
    triangulation._MEMO.clear()


@pytest.mark.parametrize("dominate", [True, False])
def test_shape_tables_match_all_rows(dominate):
    for n in range(3, 81):
        for seed in (n, 1000 + n):
            t = recognize_mop(gen_random_mop(n, seed))
            order, frames, _ = _walk(t, build_dual(t))
            assert _walk_dp(order, frames, dominate) == _all_rows_walk_dp(
                order, frames, dominate)


# ------------------------------------------- reference builds, one each ----
#
# Each mop structure as it was built on its own before the one ear-clipping
# pass: quadratic ear picking, an edge-owner dict for the dual, vertex-pair
# sets for the clique graph, a BFS from triangle 0 for the colors and a
# second BFS for the walk.  The fused pass must reproduce them exactly.

def _reference_recognize(g):
    """(boundary, triangles), or NotMaximalOuterplanar with its message."""
    n = g.n
    if n < 3:
        raise NotMaximalOuterplanar(f"need n >= 3, got n={n}")
    if not g.is_connected():
        raise NotMaximalOuterplanar("graph is not connected")
    if g.m != 2 * n - 3:
        raise NotMaximalOuterplanar(f"edge count {g.m} != 2n-3 = {2 * n - 3}")
    adj = [set(nbrs) for nbrs in g.adj]
    active = set(range(n))
    clips = []
    while len(active) > 3:
        ear = None
        for v in sorted(active):
            if len(adj[v]) != 2:
                continue
            u, w = sorted(adj[v])
            if w in adj[u]:
                ear = (v, u, w)
                break
        if ear is None:
            raise NotMaximalOuterplanar(
                "no degree-2 vertex with adjacent neighbors to clip")
        v, u, w = ear
        clips.append(ear)
        adj[u].discard(v)
        adj[w].discard(v)
        adj[v].clear()
        active.remove(v)
    a, b, c = sorted(active)
    if not (b in adj[a] and c in adj[a] and c in adj[b]):
        raise NotMaximalOuterplanar("clipping did not end on a triangle")
    nxt = {a: b, b: c, c: a}
    prv = {b: a, c: b, a: c}
    for v, u, w in reversed(clips):
        if nxt[u] == w:
            nxt[u], nxt[v], prv[w], prv[v] = v, w, v, u
        elif nxt[w] == u:
            nxt[w], nxt[v], prv[u], prv[v] = v, u, v, w
        else:
            raise NotMaximalOuterplanar(
                f"vertices {u} and {w} are not consecutive on the boundary "
                f"when re-inserting {v}; graph is not outerplanar")
    forward = nxt if nxt[0] < prv[0] else prv
    boundary = [0]
    cur = forward[0]
    while cur != 0:
        boundary.append(cur)
        cur = forward[cur]
    if len(boundary) != n:
        raise NotMaximalOuterplanar(
            "boundary reconstruction did not close a Hamiltonian cycle")
    triangles = sorted([tuple(sorted(tri)) for tri in clips] + [(a, b, c)])
    return tuple(boundary), tuple(triangles)


def _reference_dual(triangles):
    edge_owner = {}
    for idx, tri in enumerate(triangles):
        for u, v in combinations(tri, 2):
            edge_owner.setdefault((u, v), []).append(idx)
    shared = {}
    for edge, owners in edge_owner.items():
        assert len(owners) <= 2
        if len(owners) == 2:
            shared[tuple(sorted(owners))] = edge
    return Graph.from_edges(len(triangles), shared), shared


def _reference_clique_graph(triangles):
    members = {}
    for idx, tri in enumerate(triangles):
        for v in tri:
            members.setdefault(v, []).append(idx)
    edges = {pair for owners in members.values()
             for pair in combinations(owners, 2)}
    return Graph.from_edges(len(triangles), edges)


def _reference_colors(n, triangles, dual, shared):
    order, parent = bfs_tree(dual.adj, 0)
    colors = [-1] * n
    for c, v in enumerate(triangles[0]):
        colors[v] = c
    for idx in order[1:]:
        par = parent[idx]
        eu, ev = shared[(min(idx, par), max(idx, par))]
        (d,) = [v for v in triangles[par] if v not in (eu, ev)]
        (new,) = [v for v in triangles[idx] if v not in (eu, ev)]
        assert colors[new] == -1
        (colors[new],) = {0, 1, 2, 3} - {colors[eu], colors[ev], colors[d]}
    return tuple(colors)


def _reference_walk(triangles, dual, shared):
    adj = dual.adj
    root = next(i for i in range(len(triangles)) if len(adj[i]) <= 1)
    if adj[root]:
        child = adj[root][0]
        x, y = shared[(min(root, child), max(root, child))]
        (z,) = [v for v in triangles[root] if v != x and v != y]
        start = [y, z, x, -1, -1]
    else:
        start = [*triangles[root], -1, -1]
    order, parent = bfs_tree(adj, root)
    frames = [None] * len(triangles)
    frames[root] = start
    for u in order[1:]:
        i = parent[u]
        p1, p2, c = frames[i][:3]
        a, b = shared[(min(i, u), max(i, u))]
        (new,) = [v for v in triangles[u] if v != a and v != b]
        side, end = (3, p1) if p1 in (a, b) else (4, p2)
        frames[i][side] = u
        frames[u] = [end, c, new, -1, -1]
    return order, [tuple(f) for f in frames]


def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 80), st.integers(0, 10**6), st.booleans())
def test_fused_pass_matches_reference_builds(n, seed, relabel):
    g = gen_random_mop(n, seed)
    if relabel:
        g = _relabeled(g, seed)
    boundary, triangles = _reference_recognize(g)
    ref_dual, ref_shared = _reference_dual(triangles)
    t = recognize_mop(g)
    assert (t.boundary, t.triangles) == (boundary, triangles)
    assert t.dual.adj == ref_dual.adj and t.dual.shared == ref_shared
    assert t.clique_graph == _reference_clique_graph(triangles)
    assert tokunaga_color(t) == _reference_colors(n, triangles, ref_dual,
                                                  ref_shared)
    order, frames, colors = _walk(t, t.dual)
    assert (order, frames) == _reference_walk(triangles, ref_dual, ref_shared)
    assert colors == tokunaga_color(t)


def _outcome(recognize, g):
    try:
        return recognize(g)
    except NotMaximalOuterplanar as exc:
        return str(exc)


def _random_two_tree(n, seed):
    """Each vertex from 2 on joins both ends of a random earlier edge; most
    of these have an edge in three triangles, so they are not outerplanar."""
    rng = random.Random(seed)
    edges = [(0, 1)]
    for v in range(2, n):
        u, w = rng.choice(edges)
        edges += [(u, v), (w, v)]
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 30), st.integers(0, 10**6), st.integers(0, 3),
       st.booleans())
def test_recognition_rejects_as_the_reference(n, seed, moves, two_tree):
    # a random mop or 2-tree with up to three edges moved to non-edges: the
    # same edge count, so each reaches the ear clipping, which mostly finds
    # no ear, or the reconstruction, which mostly rejects a 2-tree
    start = _random_two_tree(n, seed) if two_tree else gen_random_mop(n, seed)
    g = _relabeled(start, seed)
    rng = random.Random(seed)
    edges = set(g.edges())
    for _ in range(moves):
        missing = [(u, v) for u, v in combinations(range(n), 2)
                   if (u, v) not in edges]
        if not missing:
            break
        edges.remove(rng.choice(sorted(edges)))
        edges.add(rng.choice(missing))
    h = Graph.from_edges(n, edges)
    ours = _outcome(recognize_mop, h)
    if isinstance(ours, str):
        assert ours == _outcome(_reference_recognize, h)
    else:
        assert (ours.boundary, ours.triangles) == _reference_recognize(h)


@pytest.mark.parametrize("n, edges, message", [
    # a 2-tree with a K_{2,3} inside
    (5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)],
     "vertices 0 and 1 are not consecutive on the boundary when "
     "re-inserting 2; graph is not outerplanar"),
    # gen_random_mop(9, 4) plus the chord 0-2, and minus the edge 0-1
    (9, [*gen_random_mop(9, 4).edges(), (0, 2)], "edge count 16 != 2n-3 = 15"),
    (9, [e for e in gen_random_mop(9, 4).edges() if e != (0, 1)],
     "edge count 14 != 2n-3 = 15"),
    # a triangle beside a K4
    (7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 5), (3, 6),
         (4, 6)], "graph is not connected"),
    # the right edge count, but no ear
    (7, [(0, 2), (0, 5), (0, 6), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6),
         (3, 4), (3, 5), (3, 6)],
     "no degree-2 vertex with adjacent neighbors to clip"),
    (7, [(0, 3), (0, 6), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4), (3, 5),
         (3, 6), (4, 6), (5, 6)],
     "vertices 3 and 6 are not consecutive on the boundary when "
     "re-inserting 0; graph is not outerplanar"),
])
def test_recognition_rejections_are_pinned(n, edges, message):
    with pytest.raises(NotMaximalOuterplanar) as info:
        recognize_mop(Graph.from_edges(n, edges))
    assert str(info.value) == message
