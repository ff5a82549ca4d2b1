"""Maximal outerplanar graphs: recognition, dual tree, clique graph,
Tokunaga's 4-coloring, and the dominating/packing transfers between the
graph and the clique graph of its triangles.

Recognition is ear clipping with a reconstruction certificate: repeatedly
remove a degree-2 vertex whose neighbors are adjacent, then re-insert the
clipped vertices in reverse onto an explicit boundary cycle.  A clipped
vertex whose neighbors are no longer consecutive on that cycle exposes
inputs like the K_{2,3}-containing 2-trees that pure ear clipping would
wrongly accept.

The triangle list is sorted lexicographically, so triangle indices (and
everything derived from them: dual tree, clique graph, colorings, lifted
packings) are independent of the clipping order.

`mop_facts` builds a graph's whole certificate state once: the
triangulation, dual tree, clique graph and Tokunaga colors, and exact
gamma and rho of the graph and of its clique graph.  `mop_records` and
the `certify` and `reproduce` paths read it; `check_mop_bounds`, which
needs no dual tree or coloring, solves in the same order without them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graphs import (
    CertificateError,
    Graph,
    domination_violation,
    is_dominating,
    packing_violation,
)
from .reports import ScanRecord, bound_str
from .solvers import (
    DEFAULT_BUDGET,
    GammaResult,
    RhoResult,
    domination_number,
    packing_number,
)


class NotMaximalOuterplanar(ValueError):
    """Input failed maximal outerplanar recognition; message names the
    violated condition."""


@dataclass(frozen=True)
class Triangulation:
    graph: Graph
    boundary: tuple[int, ...]  # Hamiltonian outer cycle, canonical rotation
    triangles: tuple[tuple[int, int, int], ...]  # sorted triples, sorted list


@dataclass(frozen=True)
class DualTree:
    """Tree on triangle indices; adjacent iff the triangles share an edge.
    `shared` maps each dual edge (i, j) with i < j to the shared graph edge."""

    graph: Graph
    shared: dict[tuple[int, int], tuple[int, int]]


def recognize_mop(g: Graph) -> Triangulation:
    """Recognize a maximal outerplanar graph or raise NotMaximalOuterplanar."""
    n = g.n
    if n < 3:
        raise NotMaximalOuterplanar(f"need n >= 3, got n={n}")
    if not g.is_connected():
        raise NotMaximalOuterplanar("graph is not connected")
    if g.m != 2 * n - 3:
        raise NotMaximalOuterplanar(f"edge count {g.m} != 2n-3 = {2 * n - 3}")

    adj = [set(nbrs) for nbrs in g.adj]
    active = set(range(n))
    clips: list[tuple[int, int, int]] = []
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
                "no degree-2 vertex with adjacent neighbors to clip"
            )
        v, u, w = ear
        clips.append(ear)
        adj[u].discard(v)
        adj[w].discard(v)
        adj[v].clear()
        active.remove(v)

    a, b, c = sorted(active)
    if not (b in adj[a] and c in adj[a] and c in adj[b]):
        raise NotMaximalOuterplanar("clipping did not end on a triangle")

    # reconstruction: re-insert each ear between its two neighbors, which
    # must be consecutive on the current boundary cycle
    nxt = {a: b, b: c, c: a}
    prv = {b: a, c: b, a: c}
    for v, u, w in reversed(clips):
        if nxt[u] == w:
            nxt[u] = v
            nxt[v] = w
            prv[w] = v
            prv[v] = u
        elif nxt[w] == u:
            nxt[w] = v
            nxt[v] = u
            prv[u] = v
            prv[v] = w
        else:
            raise NotMaximalOuterplanar(
                f"vertices {u} and {w} are not consecutive on the boundary "
                f"when re-inserting {v}; graph is not outerplanar"
            )

    # canonical rotation: start at 0, walk toward the smaller neighbor
    forward = nxt if nxt[0] < prv[0] else prv
    boundary = [0]
    cur = forward[0]
    while cur != 0:
        boundary.append(cur)
        cur = forward[cur]
    if len(boundary) != n:
        raise NotMaximalOuterplanar("boundary reconstruction did not close a Hamiltonian cycle")

    triangles = sorted(
        [tuple(sorted(tri)) for tri in clips] + [(a, b, c)]
    )
    return Triangulation(g, tuple(boundary), tuple(triangles))


def build_dual(t: Triangulation) -> DualTree:
    """Dual tree of the triangulation: triangles sharing an edge."""
    edge_owner: dict[tuple[int, int], list[int]] = {}
    for idx, tri in enumerate(t.triangles):
        for u, v in combinations(tri, 2):
            edge_owner.setdefault((u, v), []).append(idx)
    dual_edges = []
    shared = {}
    for edge, owners in edge_owner.items():
        if len(owners) > 2:
            raise CertificateError(f"edge {edge} lies in {len(owners)} triangles")
        if len(owners) == 2:
            i, j = sorted(owners)
            dual_edges.append((i, j))
            shared[(i, j)] = edge
    k = len(t.triangles)
    dual = Graph.from_edges(k, dual_edges)
    if not (dual.is_connected() and dual.m == k - 1):
        raise CertificateError("triangle dual is not a tree")
    return DualTree(dual, shared)


def build_clique_graph(t: Triangulation) -> Graph:
    """Graph on triangle indices, adjacent iff the triangles share a vertex.
    The dual tree is a spanning tree of this graph."""
    members: dict[int, list[int]] = {}
    for idx, tri in enumerate(t.triangles):
        for v in tri:
            members.setdefault(v, []).append(idx)
    edges = set()
    for owners in members.values():
        for i, j in combinations(owners, 2):
            edges.add((i, j))
    return Graph.from_edges(len(t.triangles), edges)


def _rooted_dual(dual: DualTree, root: int) -> tuple[dict[int, int], list[int]]:
    """Parent map and BFS visit order of the dual tree rooted at `root`."""
    parent = {root: -1}
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in dual.graph.adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
                queue.append(u)
    return parent, order


def tokunaga_color(t: Triangulation,
                   dual: DualTree | None = None) -> tuple[int, ...]:
    """4-coloring (colors 0..3) in which every pair of edge-sharing
    triangles spans all four colors on its 4-cycle.

    Root the dual tree at triangle 0, color the root triangle 0,1,2 by
    ascending vertex id; each child triangle introduces one new vertex,
    which takes the unique color missing from {shared edge} + {parent's
    opposite vertex}.  `dual` is build_dual(t), built here when omitted.
    """
    if dual is None:
        dual = build_dual(t)
    parent, order = _rooted_dual(dual, 0)
    colors = [-1] * t.graph.n
    for c, v in enumerate(t.triangles[0]):
        colors[v] = c
    for idx in order[1:]:
        par = parent[idx]
        key = (min(idx, par), max(idx, par))
        eu, ev = dual.shared[key]
        (d,) = [v for v in t.triangles[par] if v not in (eu, ev)]
        (c_new,) = [v for v in t.triangles[idx] if v not in (eu, ev)]
        if colors[c_new] != -1:
            # triangles containing a vertex form a dual subtree, so the new
            # vertex of a child is always fresh
            raise CertificateError(f"vertex {c_new} colored twice")
        blocked = {colors[eu], colors[ev], colors[d]}
        (free,) = [c for c in range(4) if c not in blocked]
        colors[c_new] = free
    problems = verify_tokunaga(t, tuple(colors), dual)
    if problems:
        raise CertificateError("tokunaga coloring failed: " + "; ".join(problems))
    return tuple(colors)


def verify_tokunaga(t: Triangulation, colors: tuple[int, ...],
                    dual: DualTree | None = None) -> list[str]:
    """Empty list when proper and every edge-sharing triangle pair carries
    all four colors.  In a maximal outerplanar graph every 4-cycle arises
    from such a pair, so this checks the full 4-cycle property.  `dual` is
    build_dual(t), built here when omitted."""
    problems = []
    for u, v in t.graph.edges():
        if colors[u] == colors[v]:
            problems.append(f"edge {u}-{v} monochromatic")
    if dual is None:
        dual = build_dual(t)
    for (i, j), (eu, ev) in dual.shared.items():
        quad = set(t.triangles[i]) | set(t.triangles[j])
        seen = {colors[v] for v in quad}
        if seen != {0, 1, 2, 3}:
            problems.append(f"triangle pair {i},{j} shows colors {sorted(seen)}")
    return problems


def project_dominating(t: Triangulation, cg: Graph,
                       nodes: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Union of the triangles of a clique-graph dominating set: a
    dominating set of the graph of at most 3x the size."""
    nodes = tuple(sorted(set(nodes)))
    bad = domination_violation(cg, nodes)
    if bad is not None:
        raise ValueError(f"nodes do not dominate the clique graph: triangle {bad} uncovered")
    x = sorted({v for idx in nodes for v in t.triangles[idx]})
    if len(x) > 3 * len(nodes):
        raise CertificateError("projected set exceeded 3x the node count")
    bad_v = domination_violation(t.graph, x)
    if bad_v is not None:
        raise CertificateError(f"projected set misses vertex {bad_v}")
    return tuple(x)


def low_degree_count(g: Graph, cutoff: int = 3) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) <= cutoff)


_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def averaged_dominating(t: Triangulation, x_set: tuple[int, ...] | list[int],
                        colors: tuple[int, ...]) -> tuple[int, ...]:
    """Best of the four color-triple prunings of X.

    For each color triple ijk, keep C = X restricted to those colors and
    add back U = vertices C misses.  The four U sets are pairwise disjoint
    and contain only vertices of degree <= 3, so the best candidate has
    size at most (3|X| + t)/4.
    """
    g = t.graph
    x_sorted = tuple(sorted(set(x_set)))
    bad = domination_violation(g, x_sorted)
    if bad is not None:
        raise ValueError(f"x_set does not dominate the graph: vertex {bad}")
    best: tuple[int, ...] | None = None
    for triple in _TRIPLES:
        c_part = [v for v in x_sorted if colors[v] in triple]
        covered = 0
        for v in c_part:
            covered |= g.closed_masks[v]
        u_part = [v for v in range(g.n) if not (covered >> v) & 1]
        candidate = tuple(sorted(set(c_part) | set(u_part)))
        if not is_dominating(g, candidate):
            raise CertificateError("triple candidate failed to dominate")
        if best is None or len(candidate) < len(best):
            best = candidate
    assert best is not None
    tcount = low_degree_count(g)
    if 4 * len(best) > 3 * len(x_sorted) + tcount:
        raise CertificateError("averaging bound (3|X| + t)/4 violated")
    return best


def lift_packing(t: Triangulation, dual: DualTree,
                 z: tuple[int, ...] | list[int],
                 cg: Graph | None = None) -> tuple[int, ...]:
    """Lift a packing Z of the clique graph to an equal-size packing of the
    graph: root the dual tree at a Z-node; every Z-node contributes the one
    vertex it does not share with the edge to its parent.  `cg` is
    build_clique_graph(t), built here when omitted."""
    z_t = tuple(sorted(set(z)))
    if not z_t:
        raise ValueError("z must be nonempty")
    if cg is None:
        cg = build_clique_graph(t)
    bad = packing_violation(cg, z_t)
    if bad is not None:
        raise ValueError(f"z is not a packing of the clique graph: {bad}")
    root = z_t[0]
    parent, order = _rooted_dual(dual, root)

    children: dict[int, list[int]] = {i: [] for i in range(len(t.triangles))}
    for v, p in parent.items():
        if p != -1:
            children[p].append(v)

    zset = set(z_t)
    lifted = []
    for u in z_t:
        if u == root:
            # avoid the separator edges toward the nearest Z-descendants
            avoid: set[int] = set()
            stack = list(children[root])
            while stack:
                q = stack.pop()
                if q in zset:
                    key = (min(q, parent[q]), max(q, parent[q]))
                    avoid.update(dual.shared[key])
                else:
                    stack.extend(children[q])
            candidates = [v for v in t.triangles[root] if v not in avoid]
            lifted.append(min(candidates) if candidates else min(t.triangles[root]))
        else:
            key = (min(u, parent[u]), max(u, parent[u]))
            eu, ev = dual.shared[key]
            (c,) = [v for v in t.triangles[u] if v not in (eu, ev)]
            lifted.append(c)
    result = tuple(sorted(lifted))
    if len(result) != len(z_t):
        raise CertificateError("lifted packing lost vertices to collisions")
    bad_pair = packing_violation(t.graph, result)
    if bad_pair is not None:
        raise CertificateError(f"lifted set is not a packing: {bad_pair}")
    return result


@dataclass(frozen=True)
class MopFacts:
    """Certificate state of one maximal outerplanar graph, built once."""

    triangulation: Triangulation
    dual: DualTree
    clique_graph: Graph
    colors: tuple[int, ...]
    gamma: GammaResult
    rho: RhoResult
    cg_gamma: GammaResult
    cg_rho: RhoResult


def _solve_four(g: Graph, cg: Graph, budget: int
                ) -> tuple[GammaResult, RhoResult, GammaResult, RhoResult]:
    """gamma(g), rho(g), gamma(cg), rho(cg) in that order: the first solve
    to exhaust the budget raises BudgetExceeded."""
    return (domination_number(g, budget), packing_number(g, budget),
            domination_number(cg, budget), packing_number(cg, budget))


def mop_facts(g: Graph, budget: int = DEFAULT_BUDGET) -> MopFacts:
    """Recognize g, build its dual tree, clique graph and Tokunaga colors,
    and solve gamma and rho of g and of the clique graph."""
    t = recognize_mop(g)
    dual = build_dual(t)
    cg = build_clique_graph(t)
    colors = tokunaga_color(t, dual)
    return MopFacts(t, dual, cg, colors, *_solve_four(g, cg, budget))


def _bound_records(g: Graph, solved: tuple[GammaResult, RhoResult,
                                           GammaResult, RhoResult],
                   graph_id: str) -> list[ScanRecord]:
    """Exact gamma/rho against the clique-graph equality, the 3rho and
    (9rho + t)/4 bounds, and the 2rho conjecture; `solved` is
    _solve_four(g, cg, budget)."""
    gamma, rho, cg_gamma, cg_rho = (r.value for r in solved)
    tcount = low_degree_count(g)
    base = dict(graph_id=graph_id, family="mop", n=g.n, gamma=gamma, rho=rho)
    return [
        ScanRecord(check="clique-graph-gamma-eq-rho", kind="theorem",
                   holds=cg_gamma == cg_rho, bound=bound_str(cg_rho),
                   details={"cg_gamma": cg_gamma, "cg_rho": cg_rho}, **base),
        ScanRecord(check="rho-ge-clique-rho", kind="theorem",
                   holds=rho >= cg_rho, bound=bound_str(cg_rho), **base),
        ScanRecord(check="gamma-le-3rho", kind="theorem",
                   holds=gamma <= 3 * rho, bound=bound_str(3 * rho), **base),
        ScanRecord(check="gamma-le-9rho-plus-t-over-4", kind="theorem",
                   holds=4 * gamma <= 9 * rho + tcount,
                   bound=bound_str(Fraction(9 * rho + tcount, 4)),
                   details={"t": tcount}, **base),
        ScanRecord(check="gamma-le-2rho", kind="conjecture",
                   holds=gamma <= 2 * rho, bound=bound_str(2 * rho), **base),
    ]


def mop_records(f: MopFacts, graph_id: str) -> list[ScanRecord]:
    """The five records of check_mop_bounds, then tokunaga-4cycle (the
    colors re-verified) and lift-packing-size (the clique graph's maximum
    packing lifted to the graph)."""
    t = f.triangulation
    problems = verify_tokunaga(t, f.colors, f.dual)
    lifted = lift_packing(t, f.dual, f.cg_rho.witness, f.clique_graph)
    base = dict(graph_id=graph_id, family="mop", n=t.graph.n)
    solved = (f.gamma, f.rho, f.cg_gamma, f.cg_rho)
    return _bound_records(t.graph, solved, graph_id) + [
        ScanRecord(check="tokunaga-4cycle", kind="theorem",
                   holds=not problems, details={"problems": problems}, **base),
        ScanRecord(check="lift-packing-size", kind="theorem",
                   holds=len(lifted) == f.cg_rho.value,
                   bound=bound_str(f.cg_rho.value),
                   details={"lifted": list(lifted)}, **base),
    ]


def check_mop_bounds(g: Graph, graph_id: str = "mop",
                     budget: int = DEFAULT_BUDGET) -> list[ScanRecord]:
    """Exact gamma/rho against the clique-graph equality, the 3rho and
    (9rho + t)/4 bounds, and the 2rho conjecture."""
    # only the clique graph: no dual tree or coloring, which mop_facts adds
    cg = build_clique_graph(recognize_mop(g))
    return _bound_records(g, _solve_four(g, cg, budget), graph_id)
