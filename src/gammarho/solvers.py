"""Exact solvers for the domination number (gamma) and the packing number
(rho), plus deliberately independent brute-force oracles.

`solve_pair` is the one router.  Every caller that needs both numbers of
a graph (the scan, `certify`, `compute`, the class records) calls it once.
It splits the graph into components once and routes each component to
the cheapest exact method:

1. A forest component (a tree: m == n - 1) is solved without search by
   `host_tree_certificate`, the one gamma = rho certificate, which
   `outerplanar` also uses for the clique graph of a maximal outerplanar
   graph: a linear-time greedy over the closed neighbourhoods, each a
   subtree of a host tree (here the tree itself), returns a dominating set
   and a packing of equal size, which proves both optimal because
   rho <= gamma.  One build serves both numbers.
2. A maximal outerplanar component (a mop) is solved without search by
   the memoized dynamic programme over its dual tree
   (`triangulation.mop_pair`).  Every component with 2n - 3 edges is
   tried, so every caller gets the same routing.
3. Every other component goes to rho's branch and bound over Python int
   bitmasks, then to gamma's with that rho as its lower bound: gamma's
   search stops as soon as its incumbent meets rho.  Its first set of
   that size is the one the full search keeps, so witnesses are those of
   the one-quantity views.  Nothing else enters a search: a class's own
   certificates (a bicubic or biconvex packing, say) go to the output,
   not to the search.

Certificates are validated before use; they report nodes = 0 and spend
none of the budget.  A certificate that fails its own check is a bug in
the construction, not a hard input, so it raises CertificateError and no
search stands in for it.  The first search to run out ends the pair, with
bounds for the whole graph (see `solve_pair`).

`domination_number` and `packing_number` are one-quantity views through
`_solve`: forest components by the certificate, every other component,
mops included, by that quantity's search alone, which the search pin
fixes node for node.

The two searches:

* gamma solves the covering IP  min sum x_v  s.t.  x(N[v]) >= 1.  At each
  node it branches on the undominated vertex with the fewest unbanned
  dominators (members of its closed neighborhood), smallest id on ties:
  the most constrained element first, as in exact set cover and
  dominating set branching (Fomin, Grandoni and Kratsch, J. ACM 2009).
  A vertex with no dominator left ends the node.  The children take its
  dominators by how many undominated vertices each covers, most first
  (smallest id on ties), and later children ban the earlier ones.
  Its three lower bounds are dual solutions of one LP, the relaxation of
  the IP left at a node: any y >= 0 on the undominated vertices with
  y(N[w]) <= 1 for every unbanned w bounds the dominators still needed
  by sum y (the paper's rho <= gamma is this duality with y a packing).
  Each node is bounded in one place, when it is popped: once an
  incumbent exists, it meets the three in this order, cheapest first.
  - The counting bound, y_v = 1/(Delta + 1): ceil(|undominated| /
    (Delta + 1)).
  - The packing bound, y_v = 1 on a greedy packing of the undominated
    vertices.
  - The fractional bound, y_v = 1/c(v), where c(v) is the most
    undominated vertices that one unbanned w in N[v] covers; a node where
    some c(v) = 0 has no completion.  It runs only on regular components.
    On bicubic graphs, where most of the search proves gamma > n/4 (no
    perfect code), it cuts gamma's nodes 2.5-6 times for n = 48-80.  An
    irregular component skips it, as a cycle skips rho's star cover:
    there every undominated vertex must be counted, and on one sparse
    graph (56 vertices, 65 edges) it cut the nodes from 30,093 to 16,609
    but took three times as long.

* rho is a maximum independent set search on the conflict graph whose
  edges join vertices at distance <= 2.  It branches in/out on the
  max-conflict-degree candidate (ties to the smallest id) and prunes with
  two greedy clique covers of the remaining candidates, since each clique
  can contribute at most one vertex: first a cover by closed
  neighbourhoods (stars), then the first-fit chain cover.  A run-out's
  upper end is the smaller of the two covers of the whole component.

Neither search recurses.  Each is a depth-first loop over an explicit
stack, which pops nodes in the order a recursive search would visit them,
so its depth is bounded by memory, not by the interpreter's recursion
limit (every leaf of gamma's search on C_n is at least n/3 levels deep).
Each node costs work in proportion to what it finds, not to the number of
vertices left:

* The packing bound takes the lowest undominated vertex and clears its
  distance-2 ball, once per packing vertex.
* The fractional bound counts only what exceeds the counting bound.  Each
  node carries `intact`, the unbanned w with N[w] all undominated; a
  child that takes u keeps those outside u's distance-2 ball (the
  siblings it bans are dominators of the pick, as u is, so they lie in
  that ball too).  On a Delta-regular component every v in N[intact] has
  c(v) = Delta + 1, so only the other undominated vertices are counted,
  each c(v) <= Delta (see `_fractional_bound_prunes`).
* gamma's branching vertex: a vertex with no banned vertex in N[v] has
  deg + 1 dominators, so the best of those is the lowest undominated bit
  of the first of the degree classes (one vertex mask per degree,
  ascending) that has one outside `touched`, the union of N[u] over the
  banned u that each node carries.  Only the undominated vertices inside
  `touched` are counted one by one.
* Each clique of the chain cover is a chain: the lowest uncovered
  candidate, then the lowest uncovered one in conflict with every member
  so far.  That is exactly the first-fit cover over candidates in id
  order.
* Each clique of the star cover is N[w] less the covered candidates, for
  the w in N[c] that covers the most of them, c the lowest uncovered
  candidate: any two members of N[w] are within distance 2 through w.  In
  a sparse graph the stars are larger cliques than the chains.  On a
  cycle (Delta <= 2) every star is a chain clique, so a cycle component
  skips the star cover (see `_solve_rho_component`).
* rho's branching vertex is sought by conflict degree classes,
  descending, and the scan stops where no candidate left can beat it.
* The packing, fractional and clique-cover bounds stop counting at the
  value that decides the prune, and all are skipped before the first
  incumbent, when they cannot prune.

The packing bound, the chain cover and rho's branching vertex compute
exactly what the plain scans over all vertices that they replaced did.
The star cover and the fractional bound prune more, but the witnesses
stay those of the searches without them: the branching order does not
depend on the bounds, and a subtree that an admissible bound prunes holds
no solution better than the incumbent.  So every leaf that improved the
incumbent is still reached, in the same order, against the same
incumbent; the first optimum in branching order is the one returned, and
each search visits a subset of the nodes it visited without them.

`nodes` in a result counts search nodes only: an answer found without
search (the host-tree certificate, or the dual-tree walk of a maximal
outerplanar graph) reports nodes = 0, and `method` says which route it
took.

Everything is deterministic: fixed branching order, fixed tie-breaks, so
reruns return byte-identical witnesses.  A node budget (default 10^7)
turns runaway searches into an explicit BudgetExceeded signal carrying the
best bounds seen, which scan harnesses report as "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from .graphs import CertificateError, Graph, bfs_tree, is_dominating, is_packing
from .triangulation import (
    NotMaximalOuterplanar,
    Triangulation,
    mop_pair,
    recognize_mop,
)

DEFAULT_BUDGET = 10_000_000
BRUTE_CAP = 24


@dataclass(frozen=True)
class Solution:
    """An exact gamma or rho: the value, an optimal witness set, the search
    nodes spent, and how it was obtained: "tree" (every component by a
    forest's certificate), "mop-walk" (no search, and some component by a
    maximal outerplanar graph's dual-tree walk) or "search" (some
    component searched).  The method never enters a report."""

    value: int
    witness: tuple[int, ...]
    nodes: int
    method: str


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

    def record(self) -> dict:
        """The run-out as every report gives it: which search ran out and
        the range [lower, upper] it had proved (upper None when it had no
        incumbent)."""
        return {"quantity": self.quantity, "range": [self.lower, self.upper]}


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


def _fractional_bound_prunes(masks, excess, undominated: int, banned: int,
                             intact: int, slack: int) -> bool:
    """Whether the dual solution y_v = 1/c(v) proves that a node of a
    Delta-regular component cannot beat the incumbent.  For each
    undominated v, c(v) is the most undominated vertices that one unbanned
    w in N[v] covers; every unbanned w then gets sum y <= 1, so the sum of
    the y_v is a lower bound on how many more dominators are needed, and no
    dominator is left for v when c(v) = 0.

    The test runs in integers, scaled by L = lcm(1..Delta + 1): `excess[c]`
    is L/c - L/(Delta + 1), and `slack` is (room - 1) L minus
    |undominated| L/(Delta + 1), which is >= 0 once the counting bound has
    passed; the node is pruned when the excess over Delta + 1 sums to more
    than the slack.  `intact` holds the unbanned w whose N[w] is all
    undominated.  Each v in their union N[intact] has c(v) = Delta + 1
    and no excess, and every other undominated v has c(v) <= Delta, so
    only those are counted, after a cheaper test that they are too many."""
    covered = 0
    while intact:
        low = intact & -intact
        intact ^= low
        covered |= masks[low.bit_length() - 1]
    rest = undominated & ~covered
    if not rest:
        return False
    top = len(excess) - 2  # Delta, the most c(v) can be for them
    if slack < rest.bit_count() * excess[top]:
        return True  # each of them costs at least the excess of Delta
    unbanned = ~banned
    total = 0
    while rest:
        low = rest & -rest
        rest ^= low
        c = 0
        m = masks[low.bit_length() - 1] & unbanned
        while m:
            w = m & -m
            m ^= w
            k = (masks[w.bit_length() - 1] & undominated).bit_count()
            if k > c:
                c = k
                if k == top:
                    break
        if c == 0:
            return True
        total += excess[c]
        if total > slack:
            return True
    return False


def _degree_classes(degrees) -> list[tuple[int, int]]:
    """(degree, mask of the vertices of that degree) for each distinct
    value in `degrees` (vertex v's at position v), by ascending degree."""
    by_degree: dict[int, int] = {}
    for v, d in enumerate(degrees):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return sorted(by_degree.items())


def host_tree_certificate(g: Graph, top: Sequence[int], visit: Iterable[int]
                          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dominating set D and packing P of g with |D| = |P|, which proves both
    optimal since rho <= gamma; CertificateError when the pair fails its
    check.  This is gammarho's one gamma = rho certificate: forest
    components use it with the tree itself as host tree, and maximal
    outerplanar graphs with the dual tree for their clique graph.

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
        raise CertificateError(f"host-tree pair failed its check "
                               f"(|D| = {len(d)}, |P| = {len(pk)})")
    return d, pk


def _tree_certificate(sub: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
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


def _solve_gamma_component(sub: Graph, near: list[int], budget: int,
                           spent: int, lower: int = 0
                           ) -> tuple[tuple[int, ...], int]:
    """Minimum dominating set of the connected graph `sub` and the nodes
    searched; witnesses, here and in its BudgetExceeded, are in sub's ids.
    `near` is `_conflict_masks(sub)`.

    Depth-first over an explicit stack of nodes (chosen, size, dominated,
    banned, touched, intact): a node pushes its children in reverse, so
    they are popped, and counted, in branching order.  Each node is
    bounded when it is popped, once an incumbent exists: the counting
    bound, the packing bound, then on a regular component the fractional
    bound.  `intact`, the fractional bound's unbanned w with N[w] all
    undominated, is 0 on an irregular component.

    `lower` is a proven lower bound on gamma (a pair solve passes rho):
    the search stops at its first set of that size.  That set is the
    first minimum set in branching order, the one the plain search
    returns, and the search visits a prefix of the plain search's
    nodes."""
    n = sub.n
    masks = sub.closed_masks
    classes = _degree_classes(map(len, sub.adj))
    reach = classes[-1][0] + 1  # Delta + 1: the most one dominator covers
    full = (1 << n) - 1
    # the fractional bound's scale L, L/(Delta + 1) and excess table, on a
    # Delta-regular component only
    scale = unit = 0
    excess: list[int] = []
    if len(classes) == 1:
        scale = lcm(*range(1, reach + 1))
        unit = scale // reach
        excess = [scale // c - unit if c else 0 for c in range(reach + 1)]
    limit = budget - spent
    nodes = 0
    # n + 1: no dominating set found yet
    best_size = n + 1
    best_set: tuple[int, ...] = ()
    stack: list = [(None, 0, 0, 0, 0, full if excess else 0)]
    while stack:
        chosen, size, dominated, banned, touched, intact = stack.pop()
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded(
                "gamma",
                lower=max(-(-n // reach), _packing_bound(near, full, n)),
                upper=len(best_set) if best_set else None,
                witness=best_set,
                nodes=spent + nodes,
            )
        if dominated == full:
            if size < best_size:
                best_size = size
                best_set = _unwind(chosen)
                if size <= lower:
                    break
            continue
        undominated = full & ~dominated
        if best_size <= n:
            left = undominated.bit_count()
            room = best_size - size  # prune when a lower bound fills it
            if (-(-left // reach) >= room
                    or _packing_bound(near, undominated, room) >= room
                    or excess and _fractional_bound_prunes(
                        masks, excess, undominated, banned, intact,
                        (room - 1) * scale - left * unit)):
                continue
        # branch on the undominated vertex with the fewest unbanned
        # dominators, smallest id on ties.  An untouched vertex keeps all
        # deg + 1 of them, so the best untouched one is the lowest bit of
        # the first degree class that has one; only the touched
        # undominated vertices are counted one by one.
        pick = -1
        count = n + 1
        rest = undominated & ~touched
        for deg, cls in classes:
            m = cls & rest
            if m:
                pick = (m & -m).bit_length() - 1
                count = deg + 1
                break
        m = undominated & touched
        if m:
            free = ~banned
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                c = (masks[v] & free).bit_count()
                if c < count or (c == count and v < pick):
                    pick, count = v, c
        if count == 0:  # every dominator of pick is banned: a dead end
            continue
        # branch on each unbanned dominator u of pick, most newly dominated
        # first (smallest id on ties); later branches ban earlier u
        order = []
        m = masks[pick] & ~banned
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            order.append((-(masks[u] & undominated).bit_count(), u))
        order.sort()
        children = []
        for _, u in order:
            children.append(((u, chosen), size + 1, dominated | masks[u],
                             banned, touched, intact and intact & ~near[u]))
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


def _star_cover_bound(masks, adj, candidates: int, cap: int) -> int:
    """Number of sets in a cover of `candidates` by closed neighbourhoods,
    or `cap` if that is smaller: a second admissible upper bound on rho
    there, stopped at the cap like `_clique_cover_bound`.

    Each step takes the lowest uncovered candidate c and removes
    N[w] & uncovered for the w in N[c] that covers the most of them (c
    itself on ties, then the lowest neighbour).  Any two members of N[w]
    are within distance 2 of each other through w, so each removed set is
    a clique of the conflict graph and a packing takes at most one vertex
    from it.  In a sparse graph these stars are larger cliques than the
    first-fit chains, which grow from the lowest ids."""
    count = 0
    m = candidates
    while m and count < cap:
        count += 1
        c = (m & -m).bit_length() - 1
        best = masks[c] & m
        size = best.bit_count()
        for w in adj[c]:
            star = masks[w] & m
            k = star.bit_count()
            if k > size:
                best, size = star, k
        m &= ~best
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


def _solve_rho_component(sub: Graph, near: list[int], budget: int,
                         spent: int) -> tuple[tuple[int, ...], int]:
    """Maximum packing of the connected graph `sub` and the nodes searched,
    in sub's ids as for gamma, with `near` as there; an explicit stack of
    nodes (chosen, size, candidates), the include branch popped first.

    A node is pruned when the star cover or, failing that, the chain
    cover fits in its room.  A cycle (Delta <= 2) skips the star cover:
    there every star is a chain clique, and on C_3 to C_200 it pruned no
    node that the chain cover kept but made each node cost half as much
    again."""
    n = sub.n
    masks, adj = sub.closed_masks, sub.adj
    classes = _degree_classes(m.bit_count() - 1 for m in near)[::-1]
    stars = max(map(len, adj)) > 2
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
                upper=min(_star_cover_bound(masks, adj, full, n),
                          _clique_cover_bound(near, full, n)),
                witness=best_set,
                nodes=spent + nodes,
            )
        if candidates == 0:
            if size > best_size:
                best_size = size
                best_set = _unwind(chosen)
            continue
        room = best_size - size  # prune when a cover fits in it
        cap = room + 1
        if (stars and _star_cover_bound(masks, adj, candidates, cap) <= room
                or _clique_cover_bound(near, candidates, cap) <= room):
            continue
        pick = _max_conflict_pick(near, classes, candidates)
        stack.append((chosen, size, candidates & ~(1 << pick)))
        stack.append(((pick, chosen), size + 1, candidates & ~near[pick]))
    return best_set, nodes


def _whole_graph(exc: BudgetExceeded, witness: list[int],
                 originals: tuple[int, ...],
                 later: Sequence[tuple[int, ...]]) -> BudgetExceeded:
    """A component's BudgetExceeded with bounds for the whole graph:
    `witness` holds the answers of the components before it, `originals`
    maps its ids to the graph's, and `later` are the components after it.
    The witness is the best partial set seen and need not be a
    solution."""
    comp_upper = exc.upper if exc.upper is not None else len(originals)
    return BudgetExceeded(
        exc.quantity,
        lower=len(witness) + exc.lower,
        upper=len(witness) + comp_upper + sum(map(len, later)),
        witness=tuple(sorted(witness + [originals[v] for v in exc.witness])),
        nodes=exc.nodes,
    )


def _solve(g: Graph, budget: int, search, half: int) -> Solution:
    """Sum of the components' answers: a tree's certificate pair gives its
    `half` (0 dominating, 1 packing), any other component goes to `search`.
    Each search gets the budget left by the components before it."""
    witness: list[int] = []
    nodes = 0
    method = "tree"
    comps = g.components()
    for i, comp in enumerate(comps):
        sub, originals = g.induced(comp)
        if sub.m == sub.n - 1:
            found, used = _tree_certificate(sub)[half], 0
        else:
            method = "search"
            try:
                found, used = search(sub, _conflict_masks(sub), budget,
                                     nodes)
            except BudgetExceeded as exc:
                raise _whole_graph(exc, witness, originals,
                                   comps[i + 1:]) from None
        witness.extend(originals[v] for v in found)
        nodes += used
    return Solution(len(witness), tuple(sorted(witness)), nodes, method)


def domination_number(g: Graph, budget: int = DEFAULT_BUDGET) -> Solution:
    """Exact gamma(g) with a minimum dominating set witness: a forest
    component's certificate, else search.  A one-quantity view; a caller
    that needs both numbers calls `solve_pair`."""
    return _solve(g, budget, _solve_gamma_component, 0)


def packing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> Solution:
    """Exact rho(g) with a maximum packing witness; the other
    one-quantity view."""
    return _solve(g, budget, _solve_rho_component, 1)


_METHODS = ("tree", "mop-walk", "search")


def solve_pair(g: Graph, budget: int = DEFAULT_BUDGET,
               triangulation: Triangulation | None = None
               ) -> tuple[Solution, Solution]:
    """Exact gamma(g) and rho(g) with optimal witnesses, from one split of
    g into components, each routed once:

    1. a forest to `_tree_certificate`, both halves from one build (K2,
       which also has 2n - 3 edges, is a tree);
    2. a maximal outerplanar graph (mop) to `mop_pair`, the dual-tree walk
       and programme, witnesses checked; `triangulation` is g's when the
       caller has recognised g as a mop already, and any other component
       with 2n - 3 edges is recognised here;
    3. any other component to rho's search, then to gamma's with that rho
       as its lower bound.

    A certificate that fails its check raises CertificateError.  Each
    quantity's searches share that quantity's budget, so each budget is
    spent at most once and no component is searched twice.  The
    BudgetExceeded that escapes is the first search's to run out, in
    component order and rho before gamma within a component, with bounds
    for the whole graph; a gamma run-out's lower end is at least the rho
    that the component's search has just proved."""
    halves: tuple[list[int], list[int]] = ([], [])  # gamma's, rho's
    nodes = [0, 0]
    route = 0
    comps = g.components()
    try:
        for i, comp in enumerate(comps):
            sub, originals = g.induced(comp)
            t = triangulation if len(comps) == 1 else None
            if t is None and sub.n > 2 and sub.m == 2 * sub.n - 3:
                try:
                    t = recognize_mop(sub)
                except NotMaximalOuterplanar:
                    pass
            if sub.m == sub.n - 1:
                pair, method = _tree_certificate(sub), 0
            elif t is not None:
                pair, method = mop_pair(t), 1
            else:
                method = 2
                near = _conflict_masks(sub)
                pack, used = _solve_rho_component(sub, near, budget, nodes[1])
                nodes[1] += used
                dom, used = _solve_gamma_component(sub, near, budget,
                                                   nodes[0], len(pack))
                nodes[0] += used
                pair = dom, pack
            for half, found in zip(halves, pair):
                half.extend(originals[v] for v in found)
            route = max(route, method)
    except BudgetExceeded as exc:
        if exc.quantity == "gamma":  # gamma >= the rho just searched
            exc.lower = max(exc.lower, len(pack))
        raise _whole_graph(exc, halves[exc.quantity == "rho"], originals,
                           comps[i + 1:]) from None
    dom, pack = (tuple(sorted(half)) for half in halves)
    return (Solution(len(dom), dom, nodes[0], _METHODS[route]),
            Solution(len(pack), pack, nodes[1], _METHODS[route]))


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
