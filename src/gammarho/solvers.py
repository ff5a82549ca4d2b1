"""Exact solvers for the domination number (gamma) and the packing number
(rho), plus deliberately independent brute-force oracles.

`domination_number` and `packing_number` share one driver, since the two
are a dual pair (rho <= gamma, with equality on trees).  The driver solves
each connected component, sums the answers, and routes each component to
the cheapest exact method:

* A forest component (a tree: m == n - 1) is solved without search by
  `host_tree_certificate`, the one gamma = rho certificate, which
  `outerplanar` also uses for the clique graph of a maximal outerplanar
  graph: a linear-time greedy over the closed neighbourhoods, each a
  subtree of a host tree (here the tree itself), returns a dominating set
  and a packing of equal size, which proves both optimal because
  rho <= gamma.  The pair is validated before use; it reports nodes = 0
  and spends none of the budget.  Should the check ever fail, the
  component falls through to the search.

* Every other component goes to that quantity's branch and bound over
  Python int bitmasks.  A component's BudgetExceeded is re-raised with
  bounds for the whole graph.

The two searches:

* gamma solves the covering IP  min sum x_v  s.t.  x(N[v]) >= 1.  At each
  node it branches on the undominated vertex with the fewest unbanned
  dominators (members of its closed neighborhood), smallest id on ties:
  the most constrained element first, as in exact set cover and
  dominating set branching (Fomin, Grandoni and Kratsch, J. ACM 2009).
  A vertex with no dominator left ends the node.  The children take its
  dominators by how many undominated vertices each covers, most first
  (smallest id on ties), and later children ban the earlier ones.  Two
  admissible lower bounds prune: the counting bound
  ceil(|undominated| / (Delta + 1)), since one dominator covers at most
  Delta + 1 vertices, and a greedily built packing of the undominated
  vertices, since distinct packing vertices need distinct dominators
  because their closed neighborhoods are disjoint.

* rho is a maximum independent set search on the conflict graph whose
  edges join vertices at distance <= 2.  It branches in/out on the
  max-conflict-degree candidate (ties to the smallest id) and prunes with
  a greedy clique cover of the remaining candidates: each clique can
  contribute at most one vertex.

Neither search recurses.  Each is a depth-first loop over an explicit
stack, which pops nodes in the order a recursive search would visit them,
so its depth is bounded by memory, not by the interpreter's recursion
limit (every leaf of gamma's search on C_n is at least n/3 levels deep).
Each node costs work in proportion to what it finds, not to the number of
vertices left:

* The packing bound takes the lowest undominated vertex and clears its
  distance-2 ball, once per packing vertex.
* gamma's branching vertex: a vertex with no banned vertex in N[v] has
  deg + 1 dominators, so the best of those is the lowest undominated bit
  of the first of the degree classes (one vertex mask per degree,
  ascending) that has one outside `touched`, the union of N[u] over the
  banned u that each node carries.  Only the undominated vertices inside
  `touched` are counted one by one.
* Each clique of the cover is a chain: the lowest uncovered candidate,
  then the lowest uncovered one in conflict with every member so far.
  That is exactly the first-fit cover over candidates in id order.
* rho's branching vertex is sought by conflict degree classes,
  descending, and the scan stops where no candidate left can beat it.
* The packing and clique-cover bounds stop counting at the value that
  decides the prune, and every bound is skipped before the first
  incumbent, when it cannot prune.

The packing bound, the cover and rho's branching vertex compute exactly
what the plain scans over all vertices that they replaced did, so rho's
search keeps those scans' values, witnesses and node counts node for node.

`nodes` in a result counts search nodes only: an answer found without
search (the host-tree certificate, or the dual-tree walk that
`outerplanar` uses for maximal outerplanar graphs) reports nodes = 0.

Everything is deterministic: fixed branching order, fixed tie-breaks, so
reruns return byte-identical witnesses.  A node budget (default 10^7)
turns runaway searches into an explicit BudgetExceeded signal carrying the
best bounds seen, which scan harnesses report as "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, bfs_tree, is_dominating, is_packing

DEFAULT_BUDGET = 10_000_000
BRUTE_CAP = 24


@dataclass(frozen=True)
class Solution:
    """An exact gamma or rho: the value, an optimal witness set and the
    search nodes spent."""

    value: int
    witness: tuple[int, ...]
    nodes: int


class BudgetExceeded(Exception):
    """Search hit the node budget.  Carries the best bounds proven so far;
    callers must treat the instance as inconclusive, never as solved."""

    def __init__(self, quantity: str, lower: int, upper: int | None,
                 witness: tuple[int, ...], nodes: int):
        self.quantity = quantity
        self.lower = lower
        self.upper = upper
        self.witness = witness
        self.nodes = nodes
        ub = "?" if upper is None else str(upper)
        super().__init__(f"{quantity} search exhausted {nodes} nodes; bounds [{lower}, {ub}]")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _packing_bound(near, undominated: int, cap: int) -> int:
    """Size of a greedy packing among the undominated vertices, or `cap`
    if that is smaller: an admissible lower bound on how many more
    dominators are needed.  A search asks only whether the bound reaches
    the cap, so the greedy stops there.

    The greedy takes the lowest vertex whose closed neighbourhood misses
    those of the vertices taken so far.  That is the lowest vertex at
    distance >= 3 from all of them, so each step takes the lowest vertex
    left and clears its distance-2 ball `near[v]`; the loop runs once per
    packing vertex."""
    count = 0
    m = undominated
    while m and count < cap:
        count += 1
        m &= ~near[(m & -m).bit_length() - 1]
    return count


def _degree_classes(degrees) -> list[tuple[int, int]]:
    """(degree, mask of the vertices of that degree) for each distinct
    value in `degrees` (vertex v's at position v), by ascending degree."""
    by_degree: dict[int, int] = {}
    for v, d in enumerate(degrees):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return sorted(by_degree.items())


def host_tree_certificate(g: Graph, top: Sequence[int], visit: Iterable[int]
                          ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Dominating set D and packing P of g with |D| = |P|, which proves both
    optimal since rho <= gamma; None when the pair fails its check.  This
    is gammarho's one gamma = rho certificate: forest components use it
    with the tree itself as host tree, and maximal outerplanar graphs with
    the dual tree for their clique graph.

    It needs a host tree: a rooted tree T on g's vertices in which every
    closed neighbourhood N[v] induces a subtree (the graphs that have one
    are the dually chordal graphs; Brandstaedt, Dragan, Chepoi and
    Voloshin, SIAM J. Discrete Math. 1998).  `top[v]` is the vertex of N[v]
    nearest T's root, and `visit` lists the vertices by non-increasing
    depth of their top.  Each v in `visit` whose N[v] meets no D vertex
    puts top[v] into D and v into P.

    D dominates: top[v] is in N[v], so each v is dominated once visited.
    P packs, since subtrees of a tree have tau = nu: two subtrees that
    meet contain the deeper one's top (both tops are ancestors of a common
    vertex, so the deeper lies on the other's path to it).  So had a later
    P vertex q's neighbourhood met an earlier p's, N[q] would contain
    top[p], which was already in D.  The check before return (|D| = |P|,
    D dominates, P packs) guards the caller's host tree."""
    dominated = [False] * g.n
    dom: set[int] = set()
    pack: list[int] = []
    for v in visit:
        if dominated[v]:
            continue
        t = top[v]
        dom.add(t)
        pack.append(v)
        dominated[t] = True
        for u in g.adj[t]:
            dominated[u] = True
    d, pk = tuple(sorted(dom)), tuple(sorted(pack))
    if len(d) != len(pk) or not is_dominating(g, d) or not is_packing(g, pk):
        return None
    return d, pk


def _tree_certificate(sub: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """`host_tree_certificate` of the tree `sub` (on trees gamma = rho,
    Meir and Moon 1975), which is its own host tree: rooted at 0 by BFS,
    N[v] is v's star, topped by v's parent (the root by the root itself).
    The visit is the BFS order from its end, deepest first as in Cockayne,
    Goodman and Hedetniemi (1975), except that the root comes ahead of its
    children; their tops are all the root, so the order stays valid.  With
    it K2 gets the packing (0,) that the search returns; the mop reports
    lift the clique-graph packing of 4-vertex mops, whose clique graph is
    K2, so their bytes do not depend on which of the two solved it."""
    order, top = bfs_tree(sub.adj, 0)
    top[0] = 0
    k = len(sub.adj[0])  # the root's children are order[1:k + 1]
    return host_tree_certificate(sub, top,
                                 order[:k:-1] + [0] + order[k:0:-1])


def _conflict_masks(g: Graph) -> list[int]:
    """cmask[v] = vertices at distance <= 2 from v, including v."""
    out = []
    for v in range(g.n):
        m = g.closed_masks[v]
        for u in g.adj[v]:
            m |= g.closed_masks[u]
        out.append(m)
    return out


def _unwind(chosen) -> tuple[int, ...]:
    """The vertices of a chosen-list, in the order they were chosen.  A
    search keeps each node's choices as a cons list (vertex, parent list),
    so that a child costs one pair however deep it sits."""
    out = []
    while chosen is not None:
        v, chosen = chosen
        out.append(v)
    return tuple(reversed(out))


def _fewest_dominators_pick(masks, classes, undominated: int, banned: int,
                            touched: int) -> tuple[int, int]:
    """(v, c): the undominated vertex v with the fewest unbanned members of
    N[v], smallest id on ties, and that count c.  `classes` are the degree
    classes, ascending, and `touched` is the union of N[u] over the banned
    u.  An untouched vertex keeps all deg + 1 of its dominators, so the
    best untouched one is the lowest bit of the first class that has one;
    only the touched undominated vertices are counted one by one."""
    pick = -1
    count = len(masks) + 1
    rest = undominated & ~touched
    for deg, cls in classes:
        low = cls & rest
        if low:
            pick = (low & -low).bit_length() - 1
            count = deg + 1
            break
    free = ~banned
    for v in _bits(undominated & touched):
        c = (masks[v] & free).bit_count()
        if c < count or (c == count and v < pick):
            pick, count = v, c
    return pick, count


def _solve_gamma_component(sub: Graph, budget: int,
                           spent: int) -> tuple[tuple[int, ...], int]:
    """Minimum dominating set of the connected graph `sub` and the nodes
    searched; witnesses, here and in its BudgetExceeded, are in sub's ids.

    Depth-first over an explicit stack of nodes (chosen, size, dominated,
    banned, touched): a node pushes its children in reverse, so they are
    popped, and counted, in branching order."""
    n = sub.n
    masks = sub.closed_masks
    near = _conflict_masks(sub)
    classes = _degree_classes(map(len, sub.adj))
    reach = classes[-1][0] + 1  # Delta + 1: the most one dominator covers
    full = (1 << n) - 1
    limit = budget - spent
    nodes = 0
    best_size = n + 1  # no dominating set found yet
    best_set: tuple[int, ...] = ()
    stack = [(None, 0, 0, 0, 0)]
    while stack:
        chosen, size, dominated, banned, touched = stack.pop()
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded(
                "gamma",
                lower=max(-(-n // reach), _packing_bound(near, full, n)),
                upper=best_size if best_size <= n else None,
                witness=best_set,
                nodes=spent + nodes,
            )
        if dominated == full:
            if size < best_size:
                best_size = size
                best_set = _unwind(chosen)
            continue
        undominated = full & ~dominated
        room = best_size - size  # prune when a lower bound fills it
        if best_size <= n and (
                -(-undominated.bit_count() // reach) >= room
                or _packing_bound(near, undominated, room) >= room):
            continue
        pick, count = _fewest_dominators_pick(masks, classes, undominated,
                                              banned, touched)
        if count == 0:  # every dominator of pick is banned: a dead end
            continue
        # branch on each unbanned dominator u of pick, most newly dominated
        # first (smallest id on ties); later branches ban earlier u
        order = sorted(_bits(masks[pick] & ~banned),
                       key=lambda u: (-(masks[u] & undominated).bit_count(), u))
        children = []
        for u in order:
            children.append(((u, chosen), size + 1, dominated | masks[u],
                             banned, touched))
            banned |= 1 << u
            touched |= masks[u]
        children.reverse()
        stack += children
    return best_set, nodes


def _clique_cover_bound(near, candidates: int, cap: int) -> int:
    """Number of cliques in a greedy clique cover of the conflict graph
    restricted to `candidates`, or `cap` if that is smaller: an admissible
    upper bound on rho there.  As for `_packing_bound`, the cover stops
    once it reaches the cap.

    Each clique is a chain: start at the lowest uncovered candidate, then
    keep taking the lowest uncovered candidate in conflict with every
    member so far.  That is the first-fit cover (each candidate in id
    order joins the first clique it is in conflict with throughout),
    built clique by clique without a list of cliques."""
    count = 0
    m = candidates
    while m and count < cap:
        count += 1
        low = m & -m
        m ^= low
        common = near[low.bit_length() - 1] & m
        while common:
            low = common & -common
            m ^= low
            common &= near[low.bit_length() - 1] ^ low
    return count


def _max_conflict_pick(near, classes, candidates: int) -> int:
    """The candidate with the most conflicts among the candidates, smallest
    id on ties.  `classes` are the conflict degree classes, by descending
    degree; a vertex's conflict degree inside the candidates is at most its
    class's.  The scan stops where no unscanned candidate can beat or
    tie-break the pick: at a class whose degree is below the pick's, or in
    a class whose degree equals the pick's, at ids past the pick's."""
    pick = -1
    pick_deg = -1
    for top, cls in classes:
        if top < pick_deg:
            break
        m = cls & candidates
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if top == pick_deg and v > pick:
                break
            m ^= low
            d = (near[v] & candidates).bit_count() - 1
            if d > pick_deg or (d == pick_deg and v < pick):
                pick = v
                pick_deg = d
    return pick


def _solve_rho_component(sub: Graph, budget: int,
                         spent: int) -> tuple[tuple[int, ...], int]:
    """Maximum packing of the connected graph `sub` and the nodes searched,
    in sub's ids as for gamma; the same explicit stack, with nodes
    (chosen, size, candidates) and the include branch popped first."""
    n = sub.n
    near = _conflict_masks(sub)
    classes = _degree_classes(m.bit_count() - 1 for m in near)[::-1]
    full = (1 << n) - 1
    limit = budget - spent
    nodes = 0
    best_size = -1
    best_set: tuple[int, ...] = ()
    stack = [(None, 0, full)]
    while stack:
        chosen, size, candidates = stack.pop()
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded(
                "rho",
                lower=max(best_size, 0),
                upper=_clique_cover_bound(near, full, n),
                witness=best_set,
                nodes=spent + nodes,
            )
        if candidates == 0:
            if size > best_size:
                best_size = size
                best_set = _unwind(chosen)
            continue
        room = best_size - size  # prune when the cover fits in it
        if _clique_cover_bound(near, candidates, room + 1) <= room:
            continue
        pick = _max_conflict_pick(near, classes, candidates)
        stack.append((chosen, size, candidates & ~(1 << pick)))
        stack.append(((pick, chosen), size + 1, candidates & ~near[pick]))
    return best_set, nodes


def _solve(g: Graph, budget: int, search, half: int) -> Solution:
    """Sum of the components' answers: a tree's certificate pair gives its
    `half` (0 dominating, 1 packing), any other component goes to `search`.
    Each search gets the budget left by the components before it."""
    witness: list[int] = []
    nodes = 0
    comps = g.components()
    for i, comp in enumerate(comps):
        sub, originals = g.induced(comp)
        cert = _tree_certificate(sub) if sub.m == sub.n - 1 else None
        if cert is not None:
            found, used = cert[half], 0
        else:
            try:
                found, used = search(sub, budget, nodes)
            except BudgetExceeded as exc:
                # rebuild bounds for the whole graph; the witness is the best
                # partial set seen and need not be a solution
                left = sum(len(c) for c in comps[i + 1:])
                comp_upper = exc.upper if exc.upper is not None else len(comp)
                partial = witness + [originals[v] for v in exc.witness]
                raise BudgetExceeded(
                    exc.quantity,
                    lower=len(witness) + exc.lower,
                    upper=len(witness) + comp_upper + left,
                    witness=tuple(sorted(partial)),
                    nodes=exc.nodes,
                ) from None
        witness.extend(originals[v] for v in found)
        nodes += used
    return Solution(len(witness), tuple(sorted(witness)), nodes)


def domination_number(g: Graph, budget: int = DEFAULT_BUDGET) -> Solution:
    """Exact gamma(g) with a minimum dominating set witness."""
    return _solve(g, budget, _solve_gamma_component, 0)


def packing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> Solution:
    """Exact rho(g) with a maximum packing witness."""
    return _solve(g, budget, _solve_rho_component, 1)


def brute_gamma(g: Graph) -> int:
    """Independent oracle: enumerate subsets by increasing cardinality.

    Dominating sets are upward closed, so the first size that works is
    gamma.  Hard capped at n <= 24; this exists to check the solver, not
    to be fast.
    """
    if g.n > BRUTE_CAP:
        raise ValueError(f"brute_gamma capped at n <= {BRUTE_CAP}")
    if g.n == 0:
        return 0
    masks = g.closed_masks
    full = (1 << g.n) - 1
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            covered = 0
            for v in combo:
                covered |= masks[v]
            if covered == full:
                return k
    raise AssertionError("unreachable: V(G) always dominates")


def brute_rho(g: Graph) -> int:
    """Independent oracle for rho, same enumeration style as brute_gamma.

    Packings are downward closed, so once no packing of size k exists the
    answer is k - 1.
    """
    if g.n > BRUTE_CAP:
        raise ValueError(f"brute_rho capped at n <= {BRUTE_CAP}")
    if g.n == 0:
        return 0
    masks = g.closed_masks
    best = 0
    for k in range(1, g.n + 1):
        found = False
        for combo in combinations(range(g.n), k):
            taken = 0
            ok = True
            for v in combo:
                if taken & masks[v]:
                    ok = False
                    break
                taken |= masks[v]
            if ok:
                found = True
                break
        if not found:
            return best
        best = k
    return best


# Classical closed forms, used as a third oracle for paths and cycles.


def path_gamma(n: int) -> int:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return -(-n // 3)


def path_rho(n: int) -> int:
    # a maximum packing of P_n takes every third vertex starting at an end
    if n < 1:
        raise ValueError("path needs n >= 1")
    return -(-n // 3)


def cycle_gamma(n: int) -> int:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return -(-n // 3)


def cycle_rho(n: int) -> int:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return n // 3
