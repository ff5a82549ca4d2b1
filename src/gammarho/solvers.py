"""Exact solvers for the domination number (gamma) and the packing number
(rho), plus deliberately independent brute-force oracles.

`domination_number` and `packing_number` share one driver, since the two
are a dual pair (rho <= gamma, with equality on trees).  The driver solves
each connected component, sums the answers, and routes each component to
the cheapest exact method:

* A forest component (a tree: m == n - 1) is solved without search by a
  linear-time greedy that returns a dominating set and a packing of equal
  size, which proves both optimal because rho <= gamma.  The pair is
  validated before use; it reports nodes = 0 and spends none of the
  budget.  Should the check ever fail, the component falls through to the
  search.

* Every other component goes to that quantity's branch and bound over
  Python int bitmasks.  A component's BudgetExceeded is re-raised with
  bounds for the whole graph.

The two searches:

* gamma solves the covering IP  min sum x_v  s.t.  x(N[v]) >= 1.  At each
  node it picks an undominated vertex of minimum degree (ties to the
  smallest id) and branches on the members of its closed neighborhood,
  excluding already-tried members in later branches.  The admissible lower
  bound is a greedily built packing of the undominated vertices: distinct
  packing vertices need distinct dominators because their closed
  neighborhoods are disjoint.

* rho is a maximum independent set search on the conflict graph whose
  edges join vertices at distance <= 2.  It branches in/out on the
  max-conflict-degree candidate (ties to the smallest id) and prunes with
  a greedy clique cover of the remaining candidates: each clique can
  contribute at most one vertex.

`nodes` in a result counts search nodes only: an answer found without
search (the forest certificate here, or the dual-tree walk and clique-graph
certificate that `outerplanar` uses for maximal outerplanar graphs) reports
nodes = 0.

Everything is deterministic: fixed branching order, fixed tie-breaks, so
reruns return byte-identical witnesses.  A node budget (default 10^7)
turns runaway searches into an explicit BudgetExceeded signal carrying the
best bounds seen, which scan harnesses report as "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, is_dominating, is_packing

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


def _greedy_packing_bound(masks, undominated: int) -> int:
    """Size of a greedy packing among the undominated vertices: an
    admissible lower bound on how many more dominators are needed."""
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


def _tree_certificate(sub: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Dominating set D and packing P of the tree `sub` with |D| = |P|.

    Since rho <= gamma always, equal sizes prove both optimal (on trees
    gamma = rho, Meir-Moon 1975).  Deepest-first greedy in the style of
    Cockayne-Goodman-Hedetniemi (1975): root at 0, walk a BFS order with
    ascending neighbors from its end, and for each still undominated v put
    v in P and its parent (v itself at the root) in D.  The pair is checked
    before it is returned; None means the check failed and the caller must
    search instead.

    One refinement: when v's parent is the root and no neighbor of the
    root is in D yet, the root goes into P in v's place.  Every earlier P
    vertex then lies at depth >= 3, so N[root] misses its neighborhood, and
    the root's entry into D ends the walk.  With it K2 gets the packing (0,)
    that the search returns; the mop reports lift the clique-graph packing
    of 4-vertex mops, whose clique graph is K2, so their bytes do not depend
    on which of the two solved it.
    """
    n = sub.n
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:  # the list grows while it is walked: an iterative BFS
        for u in sub.adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    dominated = [False] * n
    dom: set[int] = set()
    pack: list[int] = []
    for v in reversed(order):
        if dominated[v]:
            continue
        p = v if parent[v] < 0 else parent[v]
        if p == 0 and dom.isdisjoint(sub.adj[0]):
            v = 0
        pack.append(v)
        dom.add(p)
        dominated[p] = True
        for u in sub.adj[p]:
            dominated[u] = True
    d, pk = tuple(sorted(dom)), tuple(sorted(pack))
    if len(d) != len(pk) or not is_dominating(sub, d) or not is_packing(sub, pk):
        return None
    return d, pk


def _solve_gamma_component(sub: Graph, budget: int,
                           spent: int) -> tuple[tuple[int, ...], int]:
    """Minimum dominating set of the connected graph `sub` and the nodes
    searched; witnesses, here and in its BudgetExceeded, are in sub's ids."""
    n = sub.n
    masks = sub.closed_masks
    full = (1 << n) - 1
    degrees = [sub.degree(v) for v in range(n)]
    nodes = 0
    best_size: int | None = None
    best_set: tuple[int, ...] = ()

    def rec(chosen: tuple[int, ...], dominated: int, banned: int) -> None:
        nonlocal nodes, best_size, best_set
        nodes += 1
        if spent + nodes > budget:
            raise BudgetExceeded(
                "gamma",
                lower=_greedy_packing_bound(masks, full),
                upper=best_size,
                witness=best_set,
                nodes=spent + nodes,
            )
        if dominated == full:
            if best_size is None or len(chosen) < best_size:
                best_size = len(chosen)
                best_set = chosen
            return
        if best_size is not None:
            bound = len(chosen) + _greedy_packing_bound(masks, full & ~dominated)
            if bound >= best_size:
                return
        # undominated vertex of minimum degree, smallest id on ties
        pick = -1
        pick_deg = n + 1
        m = full & ~dominated
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if degrees[v] < pick_deg:
                pick_deg = degrees[v]
                pick = v
        local_banned = banned
        for u in _bits(masks[pick] & ~banned):
            rec(chosen + (u,), dominated | masks[u], local_banned)
            local_banned |= 1 << u

    rec((), 0, 0)
    return best_set, nodes


def _conflict_masks(g: Graph) -> list[int]:
    """cmask[v] = vertices at distance <= 2 from v, including v."""
    out = []
    for v in range(g.n):
        m = g.closed_masks[v]
        for u in g.adj[v]:
            m |= g.closed_masks[u]
        out.append(m)
    return out


def _greedy_clique_cover_bound(cmasks, candidates: int) -> int:
    """Number of cliques in a greedy clique cover of the conflict graph
    restricted to `candidates`: an admissible upper bound on rho there."""
    cliques: list[int] = []  # mask of vertices adjacent to every member
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


def _solve_rho_component(sub: Graph, budget: int,
                         spent: int) -> tuple[tuple[int, ...], int]:
    """Maximum packing of the connected graph `sub` and the nodes searched,
    in sub's ids as for gamma."""
    n = sub.n
    cmasks = _conflict_masks(sub)
    full = (1 << n) - 1
    nodes = 0
    best_size = -1
    best_set: tuple[int, ...] = ()

    def rec(chosen: tuple[int, ...], candidates: int) -> None:
        nonlocal nodes, best_size, best_set
        nodes += 1
        if spent + nodes > budget:
            raise BudgetExceeded(
                "rho",
                lower=max(best_size, 0),
                upper=_greedy_clique_cover_bound(cmasks, full),
                witness=best_set,
                nodes=spent + nodes,
            )
        if candidates == 0:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_set = chosen
            return
        if len(chosen) + _greedy_clique_cover_bound(cmasks, candidates) <= best_size:
            return
        # candidate with most remaining conflicts, smallest id on ties
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
        rec(chosen + (pick,), candidates & ~cmasks[pick])
        rec(chosen, candidates & ~(1 << pick))

    rec((), full)
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
