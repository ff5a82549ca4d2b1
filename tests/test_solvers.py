import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls
from gammarho.generators import (
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_rook,
    gen_sun,
    generalized_petersen,
    heawood,
    petersen,
)
from gammarho import solvers
from gammarho.triangulation import NotMaximalOuterplanar, recognize_mop
from gammarho.graphs import (
    CertificateError,
    Graph,
    bfs_tree,
    distances_from,
    is_dominating,
    is_packing,
)
from gammarho.solvers import (
    BRUTE_CAP,
    BudgetExceeded,
    brute_gamma,
    brute_rho,
    cycle_gamma,
    cycle_rho,
    domination_number,
    host_tree_certificate,
    packing_number,
    path_gamma,
    path_rho,
)


def test_closed_forms_match_brute_force():
    for n in range(1, 13):
        g = gen_path(n)
        assert brute_gamma(g) == path_gamma(n) == (n + 2) // 3
        assert brute_rho(g) == path_rho(n) == (n + 2) // 3
    for n in range(3, 13):
        g = gen_cycle(n)
        assert brute_gamma(g) == cycle_gamma(n) == (n + 2) // 3
        assert brute_rho(g) == cycle_rho(n) == n // 3


def test_solver_matches_closed_forms():
    for n in range(1, 16):
        g = gen_path(n)
        assert domination_number(g).value == path_gamma(n)
        assert packing_number(g).value == path_rho(n)
    for n in range(3, 16):
        g = gen_cycle(n)
        assert domination_number(g).value == cycle_gamma(n)
        assert packing_number(g).value == cycle_rho(n)


# (gamma, rho) confirmed by subset enumeration, independent of the solver
NAMED_VALUES = [
    (gen_cycle(4), 2, 1),
    (gen_complete_bipartite(3, 3), 2, 1),
    (gen_sun(), 2, 1),
    (petersen(), 3, 1),
    (heawood(), 4, 2),
    (generalized_petersen(7, 2), 5, 3),
    (gen_rook(4), 4, 1),
]


def test_named_graph_values():
    for g, gamma, rho in NAMED_VALUES:
        gres = domination_number(g)
        rres = packing_number(g)
        assert gres.value == gamma
        assert rres.value == rho
        assert len(gres.witness) == gamma and is_dominating(g, gres.witness)
        assert len(rres.witness) == rho and is_packing(g, rres.witness)


def test_solver_agrees_with_brute_on_random_graphs():
    for seed in range(60):
        g = gen_random_connected(4 + seed % 9, seed)
        assert domination_number(g).value == brute_gamma(g)
        assert packing_number(g).value == brute_rho(g)


def test_witnesses_are_valid_and_deterministic():
    for seed in range(20):
        g = gen_random_connected(10, 100 + seed)
        a = domination_number(g)
        b = domination_number(g)
        assert a.witness == b.witness
        assert is_dominating(g, a.witness)
        p = packing_number(g)
        assert is_packing(g, p.witness)
        assert p.witness == packing_number(g).witness


def test_disconnected_graphs_aggregate_components():
    # two paths of length 2 and an isolated vertex
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert domination_number(g).value == 3
    assert packing_number(g).value == 3
    assert brute_gamma(g) == 3 and brute_rho(g) == 3
    empty = Graph.from_edges(3, [])
    assert domination_number(empty).value == 3
    assert packing_number(empty).value == 3


def test_single_vertex():
    g = Graph.from_edges(1, [])
    assert domination_number(g).value == 1
    assert packing_number(g).value == 1
    assert domination_number(g).witness == (0,)


def test_budget_exceeded_carries_bounds():
    g = gen_rook(5)  # n = 25, gamma = 5 needs real branching
    with pytest.raises(BudgetExceeded) as err:
        domination_number(g, budget=5)
    exc = err.value
    assert exc.quantity == "gamma"
    assert exc.lower >= 1
    assert exc.upper is None or exc.lower <= exc.upper
    assert exc.nodes >= 5
    # rook-5 has diameter 2, so rho = 1 meets its root cover at the first
    # leaf; a cycle's rho still runs out
    with pytest.raises(BudgetExceeded) as err2:
        packing_number(gen_cycle(30), budget=2)
    assert err2.value.quantity == "rho"


def test_budget_bounds_bracket_truth():
    g = gen_rook(4)  # gamma = 4, rho = 1, known from enumeration
    try:
        domination_number(g, budget=30)
    except BudgetExceeded as exc:
        assert exc.lower <= 4
        if exc.upper is not None:
            assert exc.upper >= 4
            assert is_dominating(g, exc.witness)


def test_brute_force_cap():
    g = gen_path(BRUTE_CAP + 1)
    with pytest.raises(ValueError):
        brute_gamma(g)
    with pytest.raises(ValueError):
        brute_rho(g)


def test_rho_le_gamma_on_random_corpus():
    for seed in range(40):
        g = gen_random_connected(5 + seed % 8, 500 + seed)
        gamma = domination_number(g).value
        rho = packing_number(g).value
        assert rho <= gamma <= g.max_degree() * rho


def test_long_paths_and_large_trees_do_not_recurse():
    # deeper than Python's default recursion limit for both searches
    g = gen_path(3300)
    gamma = domination_number(g)
    rho = packing_number(g)
    assert gamma.value == path_gamma(3300) == len(gamma.witness)
    assert rho.value == path_rho(3300) == len(rho.witness)
    assert is_dominating(g, gamma.witness) and is_packing(g, rho.witness)
    rng = random.Random(5)
    deep = Graph.from_edges(5000, [(rng.randrange(max(0, v - 3), v), v)
                                   for v in range(1, 5000)])
    for t in (gen_random_tree(5000, 3), deep):
        gamma = domination_number(t)
        rho = packing_number(t)
        assert gamma.value == rho.value
        assert gamma.nodes == rho.nodes == 0
        assert len(gamma.witness) == gamma.value and is_dominating(t, gamma.witness)
        assert len(rho.witness) == rho.value and is_packing(t, rho.witness)


def test_deep_cyclic_searches_run_out_of_budget_not_stack():
    # rho's include branch on C_3300 goes deeper than the default
    # recursion limit before its first leaf
    with pytest.raises(BudgetExceeded) as err:
        packing_number(gen_cycle(3300), 20_000)
    assert err.value.nodes == 20_001
    assert err.value.lower <= cycle_rho(3300) <= err.value.upper


def test_deep_cycle_gamma_answers_within_budget():
    # the counting bound n/3 meets the first dive's 1100 at the root, so
    # the search ends after that one dive of 3300 nodes
    g = gen_cycle(3300)
    gamma = domination_number(g, 20_000)
    assert gamma.value == cycle_gamma(3300) == 1100 == len(gamma.witness)
    assert is_dominating(g, gamma.witness)


@st.composite
def small_graphs(draw):
    """Any graph on at most 14 vertices: every density, with isolated
    vertices and several components among the draws."""
    n = draw(st.integers(0, 14))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_gamma_matches_brute_force_and_budget_bounds_bracket_it(g):
    gamma = brute_gamma(g)
    sol = domination_number(g)
    assert sol.value == gamma == len(sol.witness)
    assert is_dominating(g, sol.witness)
    for budget in (1, 50):
        try:
            assert domination_number(g, budget).value == gamma
        except BudgetExceeded as exc:
            assert exc.lower <= gamma <= exc.upper


def test_forest_components_inside_cyclic_graphs_use_no_budget():
    # P_3 + C_5: the path is certified, only the cycle is searched
    g = Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
    cycle, _ = g.induced(range(3, 8))
    assert domination_number(g).nodes == domination_number(cycle).nodes
    assert packing_number(g).nodes == packing_number(cycle).nodes
    assert domination_number(g).value == 1 + cycle_gamma(5)
    assert packing_number(g).value == 1 + cycle_rho(5)


@st.composite
def forests(draw, max_n=16):
    """A labelled forest: each vertex after the first hangs off an earlier
    one or starts a new component, then the labels are shuffled."""
    n = draw(st.integers(1, max_n))
    edges = []
    for v in range(1, n):
        p = draw(st.one_of(st.none(), st.integers(0, v - 1)))
        if p is not None:
            edges.append((p, v))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def forests_plus_cycle(draw):
    """A forest beside one component that has a cycle (a cycle with some
    chords), labels shuffled across both."""
    forest = draw(forests(max_n=12))
    k = draw(st.integers(3, 7))
    edges = {(i, (i + 1) % k) for i in range(k)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, k - 1),
                                          st.integers(0, k - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=3)))
    n = forest.n + k
    perm = draw(st.permutations(range(n)))
    all_edges = list(forest.edges()) + [(forest.n + u, forest.n + v) for u, v in edges]
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in all_edges])


def _check_exact(g):
    gamma = domination_number(g)
    rho = packing_number(g)
    assert gamma.value == brute_gamma(g) == len(gamma.witness)
    assert rho.value == brute_rho(g) == len(rho.witness)
    assert is_dominating(g, gamma.witness) and is_packing(g, rho.witness)
    assert domination_number(g) == gamma and packing_number(g) == rho
    return gamma, rho


@settings(max_examples=150, deadline=None)
@given(forests())
def test_forests_match_brute_force_without_search(g):
    gamma, rho = _check_exact(g)
    assert gamma.value == rho.value
    assert gamma.nodes == rho.nodes == 0
    assert domination_number(g, budget=1) == gamma
    assert packing_number(g, budget=1) == rho


@settings(max_examples=100, deadline=None)
@given(forests_plus_cycle())
def test_forest_plus_cycle_matches_brute_force_and_budget_bounds(g):
    gamma, rho = _check_exact(g)
    with pytest.raises(BudgetExceeded) as err:
        domination_number(g, budget=1)
    assert err.value.lower <= gamma.value <= err.value.upper
    with pytest.raises(BudgetExceeded) as err:
        packing_number(g, budget=1)
    assert err.value.lower <= rho.value <= err.value.upper


def _outcomes(g, budget):
    """gamma and rho results, or the bounds, witness and node count of
    the BudgetExceeded that ended each solve."""
    out = []
    for solve in (domination_number, packing_number):
        try:
            out.append(solve(g, budget))
        except BudgetExceeded as exc:
            out.append((exc.quantity, exc.lower, exc.upper, exc.witness,
                        exc.nodes))
    return out


def _rebuilt_induced(h, vertices):
    """Graph.induced without its spanning shortcut: always a new Graph."""
    originals = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(originals)}
    adj = [[index[u] for u in h.adj[v] if u in index] for v in originals]
    return Graph(len(originals), adj), originals


def _assert_spanning_shortcut_changes_nothing(g):
    # Graph.induced returns g itself for a component that spans g; an
    # explicit rebuild must give the same values, witnesses and node counts
    for budget in (solvers.DEFAULT_BUDGET, 5):
        fast = _outcomes(g, budget)
        with mock.patch.object(Graph, "induced", _rebuilt_induced):
            assert _outcomes(g, budget) == fast


def test_spanning_component_shortcut_on_fixed_graphs():
    two_cycles = Graph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    graphs = [petersen(), heawood(), gen_sun(), gen_cycle(9),
              gen_random_connected(11, 4), gen_random_bicubic(20, 3),
              gen_random_mop(14, 2), gen_random_tree(15, 1), two_cycles,
              Graph.from_edges(1, [])]
    for g in graphs:
        _assert_spanning_shortcut_changes_nothing(g)


@settings(max_examples=60, deadline=None)
@given(st.one_of(forests(), forests_plus_cycle()))
def test_spanning_component_shortcut_on_forests_and_cycles(g):
    _assert_spanning_shortcut_changes_nothing(g)


@st.composite
def trees(draw, max_n=20):
    """A labelled tree: each vertex after the first hangs off an earlier
    one, then the labels are shuffled."""
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _power(t, k):
    """T^k: vertices at distance 1..k in the tree t are adjacent."""
    edges = []
    for v in range(t.n):
        dist = distances_from(t, v)
        edges += [(v, u) for u in range(v + 1, t.n) if dist[u] <= k]
    return Graph.from_edges(t.n, edges)


def _host_tree_inputs(t, g):
    """top and visit for g, whose closed neighbourhoods are subtrees of the
    tree t: root t at 0 by BFS, take the least deep vertex of each N[v]
    as its top, and visit by decreasing depth of the top."""
    order, parent = bfs_tree(t.adj, 0)
    depth = [0] * t.n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    top = [min((v, *g.adj[v]), key=depth.__getitem__) for v in range(g.n)]
    visit = sorted(range(g.n), key=lambda v: (-depth[top[v]], v))
    return top, visit, order


@settings(max_examples=80, deadline=None)
@given(trees(), st.sampled_from((2, 3)))
def test_host_tree_certificate_on_tree_powers_matches_brute_force(t, k):
    # each closed neighbourhood of T^k is a ball of T, hence a subtree
    g = _power(t, k)
    top, visit, _ = _host_tree_inputs(t, g)
    dom, pack = host_tree_certificate(g, top, visit)
    assert len(dom) == len(pack) == brute_gamma(g) == brute_rho(g)
    assert is_dominating(g, dom) and is_packing(g, pack)


@settings(max_examples=80, deadline=None)
@given(trees(), st.sampled_from((1, 2, 3)))
def test_host_tree_certificate_never_returns_an_invalid_pair(t, k):
    # the forward BFS order breaks the decreasing-depth rule; the check
    # must turn any pair that is not a proof into CertificateError
    g = t if k == 1 else _power(t, k)
    top, _, order = _host_tree_inputs(t, g)
    try:
        dom, pack = host_tree_certificate(g, top, order)
    except CertificateError:
        return
    assert len(dom) == len(pack)
    assert is_dominating(g, dom) and is_packing(g, pack)


def test_host_tree_certificate_rejects_a_visit_against_depth():
    # P_5 rooted at 0, visited root first: 0 and 2 enter P at distance 2
    g = gen_path(5)
    top = [0, 0, 1, 2, 3]
    with pytest.raises(CertificateError, match="host-tree pair"):
        host_tree_certificate(g, top, range(5))
    assert host_tree_certificate(g, top, range(4, -1, -1)) == ((0, 3), (1, 4))


# ------------------------------------------------------ one pair solve ----

def _views(g):
    """gamma then rho from the one-quantity views."""
    return domination_number(g), packing_number(g)


def _pair(g, budget=solvers.DEFAULT_BUDGET):
    try:
        return solvers.solve_pair(g, budget)
    except BudgetExceeded as exc:
        return exc.quantity, exc.lower, exc.upper, exc.witness, exc.nodes


def _is_mop(g):
    try:
        recognize_mop(g)
    except NotMaximalOuterplanar:
        return False
    return True


def _disjoint_union(graphs, perm):
    edges, offset = [], 0
    for h in graphs:
        edges += [(perm[offset + u], perm[offset + v]) for u, v in h.edges()]
        offset += h.n
    return Graph.from_edges(offset, edges)


@st.composite
def mixed_graphs(draw, max_n=20):
    """A disjoint union, labels shuffled, of up to four components drawn
    from a random tree, a random mop, a cycle and a random connected
    graph, at most `max_n` vertices in all."""
    parts, room = [], max_n
    for kind in draw(st.lists(st.sampled_from(("tree", "mop", "cycle", "any")),
                              min_size=1, max_size=4)):
        low = 3 if kind in ("mop", "cycle") else 1
        if room < low:
            break
        n = draw(st.integers(low, min(room, 9)))
        seed = draw(st.integers(0, 10**6))
        parts.append({"tree": lambda: gen_random_tree(n, seed),
                      "mop": lambda: gen_random_mop(n, seed),
                      "cycle": lambda: gen_cycle(n),
                      "any": lambda: gen_random_connected(n, seed)}[kind]())
        room -= n
    total = sum(h.n for h in parts)
    return _disjoint_union(parts, draw(st.permutations(range(total))))


@settings(max_examples=150, deadline=None)
@given(mixed_graphs())
def test_solve_pair_matches_the_views_and_brute_force(g):
    gamma, rho = solvers.solve_pair(g)
    views = _views(g)
    assert (gamma.value, rho.value) == (views[0].value, views[1].value)
    assert (gamma.value, rho.value) == (brute_gamma(g), brute_rho(g))
    assert len(gamma.witness) == gamma.value and is_dominating(g, gamma.witness)
    assert len(rho.witness) == rho.value and is_packing(g, rho.witness)
    # search runs on fewer components, and no searched component visits
    # a node the views' searches do not
    assert gamma.nodes <= views[0].nodes and rho.nodes <= views[1].nodes


@settings(max_examples=150, deadline=None)
@given(mixed_graphs(), st.integers(1, 60))
def test_solve_pair_answers_exactly_or_brackets_its_run_out(g, budget):
    # an answer is exact; a run-out's range brackets its quantity's value,
    # and a rho run-out carries a packing of its lower end
    pair = _pair(g, budget)
    truth = {"gamma": brute_gamma(g), "rho": brute_rho(g)}
    if not isinstance(pair[0], str):
        assert [s.value for s in pair] == [truth["gamma"], truth["rho"]]
        return
    quantity, lower, upper, witness, nodes = pair
    assert lower <= truth[quantity] <= upper and nodes == budget + 1
    if quantity == "rho":
        assert len(witness) == lower and is_packing(g, witness)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_every_budget_gives_the_answer_or_an_open_range(g):
    # each search stops at its first incumbent that meets its root bound and
    # reports that bound when it runs out, so no budget closes a run-out's
    # range: it either answers as the unbounded solve does or leaves the
    # true value strictly inside [lower, upper]
    whole = solvers.solve_pair(g)
    truth = {"gamma": brute_gamma(g), "rho": brute_rho(g)}
    for budget in range(1, max(s.nodes for s in whole) + 1):
        pair = _pair(g, budget)
        if isinstance(pair[0], str):
            quantity, lower, upper = pair[:3]
            assert lower <= truth[quantity] <= upper and lower < upper, (
                budget, pair)
        else:
            assert pair == whole, budget


def test_solve_pair_keeps_the_search_witnesses_off_mops():
    # gamma stops at rho, but every witness is the one the views return
    cases = [gen_random_connected(4 + s % 12, s) for s in range(60)]
    cases += [gen_random_bicubic(16 + 2 * (s % 6), 500 + s)
              for s in range(12)]
    for s in range(40):
        g, _ = gen_random_biconvex(2 + s % 9, 2 + (s // 9) % 9, s)
        if g.is_connected():
            cases.append(g)
    cases += [gen_cycle(n) for n in range(4, 40)]
    for g in cases:
        if _is_mop(g):
            continue
        pair, views = solvers.solve_pair(g), _views(g)
        for got, want in zip(pair, views):
            assert (got.value, got.witness) == (want.value, want.witness)
            assert got.nodes <= want.nodes


def test_solve_pair_methods():
    mop = gen_random_mop(12, 3)
    cases = [(gen_random_tree(15, 2), "tree", "tree"),
             (Graph.from_edges(3, []), "tree", "tree"),
             (mop, "mop-walk", "search"),
             (_disjoint_union([gen_path(4), mop], range(16)), "mop-walk",
              "search"),
             (gen_cycle(7), "search", "search"),
             (_disjoint_union([mop, gen_cycle(5)], range(17)), "search",
              "search")]
    for g, pair_method, view_method in cases:
        gamma, rho = solvers.solve_pair(g)
        assert gamma.method == rho.method == pair_method
        assert domination_number(g).method == view_method
        assert packing_number(g).method == view_method
    assert mop.m == 2 * mop.n - 3
    assert solvers.solve_pair(mop)[0].nodes == 0


def test_gamma_eq_rho_graph_answers_where_the_views_run_out():
    # gamma = rho = 5: the views' gamma search needs 81 nodes to prove its
    # first set of 5 optimal, since its own root bound is 3, while the
    # pair's stops there, at node 6, after rho's 58 nodes.  (The graph
    # was gen_random_connected(21, 127) at budget 100 until gamma's search
    # came to skip dominated siblings; its views' gamma fell from 172 nodes
    # to 32, below rho's 59.)
    g = gen_random_connected(25, 108)
    with pytest.raises(BudgetExceeded) as err:
        domination_number(g, 70)
    assert (err.value.quantity, err.value.lower, err.value.nodes) == (
        "gamma", 3, 71)
    gamma, rho = solvers.solve_pair(g, 70)
    assert (gamma.value, gamma.nodes, rho.value, rho.nodes) == (5, 6, 5, 58)
    assert gamma.witness == domination_number(g).witness
    assert rho.witness == packing_number(g).witness


def test_pair_builds_conflict_masks_once_per_searched_component(monkeypatch):
    # Petersen and C_31 are searched, the path between them is a tree; rho's
    # and gamma's searches of a component share one build
    g = _disjoint_union((petersen(), gen_path(5), gen_cycle(31)), range(46))
    counts = count_calls(monkeypatch, ("_conflict_masks",))
    solvers.solve_pair(g)
    assert counts["_conflict_masks"] == 2


@pytest.mark.parametrize("parts, budget, record, searches", [
    # rho runs out on C_60; gamma is never searched
    ((gen_cycle(60),), 100, ("rho", 15, 20), (1, 0)),
    # gamma = rho = 6 on the first component, where gamma stops at rho;
    # gamma runs out on the second, after rho has answered there
    ((gen_random_connected(21, 127), gen_random_connected(24, 3012)), 100,
     ("gamma", 8, 11), (2, 2)),
    # a mop, which the pair walks, before a cycle on which rho runs out
    ((gen_random_mop(6, 9801), gen_cycle(30)), 35, ("rho", 9, 11), (1, 0)),
    # rho runs out first on a bicubic graph
    ((gen_random_bicubic(30, 1),), 5, ("rho", 4, 10), (1, 0)),
])
def test_a_run_out_searches_each_component_once_and_calls_no_view(
        monkeypatch, parts, budget, record, searches):
    g = _disjoint_union(parts, range(sum(h.n for h in parts)))
    counts = count_calls(monkeypatch, (
        "domination_number", "packing_number", "_solve_rho_component",
        "_solve_gamma_component"))
    assert _pair(g, budget)[:3] == record
    done = counts["_solve_rho_component"], counts["_solve_gamma_component"]
    assert done == searches and max(done) <= len(parts)
    assert counts["domination_number"] == counts["packing_number"] == 0


def test_a_gamma_run_out_starts_at_the_rho_just_searched():
    # gamma's own bounds reach only 3 here; rho's search has proved 5.
    # (At budget 200 this pair ran out the same way until gamma's search
    # came to skip dominated siblings; it now answers gamma = 6 in 133
    # nodes, and the run-outs counted below fell from 35 to 12.)
    with pytest.raises(BudgetExceeded) as err:
        solvers.solve_pair(gen_random_connected(28, 14), 100)
    assert (err.value.quantity, err.value.lower, err.value.upper) == (
        "gamma", 5, 6)
    run_outs = 0
    for n in range(18, 33, 2):
        for seed in range(10):
            g = gen_random_connected(n, seed)
            for budget in (100, 200, 400):
                try:
                    solvers.solve_pair(g, budget)
                except BudgetExceeded as exc:
                    if exc.quantity == "gamma":
                        run_outs += 1
                        assert exc.lower >= packing_number(g).value
    assert run_outs == 12


def test_a_rho_run_out_ends_at_the_smaller_whole_component_cover():
    # on this 1000-vertex bicubic graph the chain cover of the whole graph
    # counts 348 cliques and the star cover 313; on the n = 30 one both
    # count 10, so its run-out at budget 5 stays [4, 10].  The lower end
    # at n = 1000 rose from 175 to 177 when rho's search came to run the
    # one-short test
    covers = []
    for g in (gen_random_bicubic(1000, 1), gen_random_bicubic(30, 1)):
        full = (1 << g.n) - 1
        covers.append((
            solvers._clique_cover_bound(solvers._conflict_masks(g), full, g.n),
            len(solvers._star_cover(g.closed_masks, g.adj, full, g.n))))
    assert covers == [(348, 313), (10, 10)]
    for g, budget, bounds in ((gen_random_bicubic(1000, 1), 20000, (177, 313)),
                              (gen_random_bicubic(30, 1), 5, (4, 10))):
        with pytest.raises(BudgetExceeded) as err:
            solvers.solve_pair(g, budget)
        assert (err.value.quantity, err.value.lower, err.value.upper) == (
            "rho", *bounds)


def test_a_run_out_reports_its_quantity_and_range():
    # the one shape that compute, the records and the counterexample replay
    # print, key order included
    record = BudgetExceeded("gamma", 3, None, (), 5).record()
    assert list(record.items()) == [("quantity", "gamma"),
                                    ("range", [3, None])]


# A run-out whose range is closed would have proved the value, so it must
# not be reported as inconclusive: each search stops at its first incumbent
# that meets its own root bound, and a run-out reports that bound.  These
# two ran out with rho in [1, 1] and gamma in [4, 4] while the searches went
# on proving an optimum they had found.
@pytest.mark.parametrize("g, budget", [(gen_complete_bipartite(3, 3), 2),
                                       (heawood(), 13)],
                         ids=["K33-rho", "heawood-gamma"])
def test_a_run_out_with_a_closed_range_is_an_answer(g, budget):
    try:
        solvers.solve_pair(g, budget)
    except BudgetExceeded as exc:
        assert exc.lower != exc.upper, exc.record()
