"""Maximal outerplanar graphs (mops): the clique graph of the triangles,
the dominating/packing transfers between the graph and that clique graph,
and the class's certificate bundle.  Recognition, the dual tree, its walk
with the Tokunaga 4-coloring, and the dynamic programme for gamma and rho
live in `gammarho.triangulation`, below `solvers`; their public names are
re-exported here.

`mop_facts` builds a graph's whole certificate state from one ear
clipping.  The triangulation keeps its dual tree and its walk, so the pair
solve (`solvers.solve_pair`, which routes the mop to the dual-tree
programme) and the clique graph's numbers read the same walk.
`build_clique_graph` joins the triangles at each vertex.  `certify_mop`
reads the projected and averaged dominating sets, the class's rows of the
bound table (`gammarho.bounds`) and the two certificate checks off it.

None of the four numbers needs search.  On the clique graph every closed
neighborhood is a subtree of the dual tree, so the dual tree is a host
tree for `solvers.host_tree_certificate`, gammarho's one gamma = rho
certificate, which returns a dominating set and a packing of equal size.
Each witness is checked before use; these answers report nodes = 0.
Should a check ever fail, that graph goes to `solvers.solve_pair`'s search
under the caller's budget instead, which shows as nodes > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds
from .graphs import (
    CertificateError,
    Graph,
    bfs_tree,
    domination_violation,
    is_dominating,
    packing_violation,
)
from .reports import ScanRecord, bound_str
from .solvers import DEFAULT_BUDGET, Solution, host_tree_certificate, solve_pair
# the recognition, dual tree and colouring names are re-exported here
from .triangulation import (
    DualTree,
    NotMaximalOuterplanar,
    Triangulation,
    build_dual,
    recognize_mop,
    tokunaga_color,
    verify_tokunaga,
)


def build_clique_graph(t: Triangulation) -> Graph:
    """Graph on triangle indices, adjacent iff the triangles share a vertex.
    The dual tree is a spanning tree of this graph."""
    members: list[list[int]] = [[] for _ in range(t.graph.n)]
    for idx, tri in enumerate(t.triangles):
        for v in tri:
            members[v].append(idx)
    adj = []
    for idx, (x, y, z) in enumerate(t.triangles):
        nbrs = set(members[x]).union(members[y], members[z])
        nbrs.discard(idx)
        adj.append(nbrs)
    return Graph(len(adj), adj)


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


def low_degree_count(g: Graph) -> int:
    """t of the bound 4 gamma <= 9 rho + t: the number of vertices of
    degree at most 3."""
    return sum(1 for nbrs in g.adj if len(nbrs) <= 3)


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
                 cg: Graph) -> tuple[int, ...]:
    """Lift a packing Z of the clique graph to an equal-size packing of the
    graph: root the dual tree at a Z-node; every Z-node contributes the one
    vertex it does not share with the edge to its parent.  `cg` is
    build_clique_graph(t)."""
    z_t = tuple(sorted(set(z)))
    if not z_t:
        raise ValueError("z must be nonempty")
    bad = packing_violation(cg, z_t)
    if bad is not None:
        raise ValueError(f"z is not a packing of the clique graph: {bad}")
    root = z_t[0]
    order, parent = bfs_tree(dual.adj, root)

    children: list[list[int]] = [[] for _ in t.triangles]
    for v in order[1:]:
        children[parent[v]].append(v)

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
    gamma: Solution
    rho: Solution
    cg_gamma: Solution
    cg_rho: Solution


def _clique_numbers(t: Triangulation, cg: Graph, order: list[int],
                    budget: int) -> tuple[Solution, Solution]:
    """gamma and rho of the clique graph cg of t, from
    `host_tree_certificate` with the dual tree as host tree (nodes = 0),
    else from `solve_pair` under `budget`.  `order` is a BFS order of the
    dual tree.

    The triangles through one vertex form a path of the dual tree, so the
    closed neighborhood of a triangle in the clique graph, the union of the
    three paths through its vertices, is a subtree.  Its top is the first
    triangle in `order` that meets it, and the visit takes the triangles
    by decreasing position of their top, so by non-increasing depth."""
    tris = t.triangles
    pos = [0] * len(tris)
    first: dict[int, int] = {}
    for p, i in enumerate(order):
        pos[i] = p
        for v in tris[i]:
            first.setdefault(v, i)
    top = [min((first[v] for v in tri), key=pos.__getitem__) for tri in tris]
    visit = sorted(range(len(tris)), key=lambda i: (-pos[top[i]], i))
    cert = host_tree_certificate(cg, top, visit)
    if cert is None:
        return solve_pair(cg, budget)
    dom, pack = cert
    return (Solution(len(dom), dom, 0, "mop-walk"),
            Solution(len(pack), pack, 0, "mop-walk"))


def clique_graph_numbers(t: Triangulation, budget: int = DEFAULT_BUDGET
                         ) -> tuple[Solution, Solution]:
    """gamma and rho of t's clique graph, equal and certified without
    search, from the walk that t keeps."""
    return _clique_numbers(t, build_clique_graph(t), t.walk[0], budget)


def mop_facts(g: Graph, budget: int = DEFAULT_BUDGET) -> MopFacts:
    """Recognize g, build its clique graph, walk the dual tree once for the
    frames and Tokunaga colors, and take gamma and rho of g (through
    `solve_pair`, which reads the same walk) and of the clique graph, in
    that order.  Search runs only where a check fails; the first to
    exhaust `budget` raises BudgetExceeded."""
    t = recognize_mop(g)
    cg = build_clique_graph(t)
    order, _, colors = t.walk
    return MopFacts(t, t.dual, cg, colors, *solve_pair(g, budget, t),
                    *_clique_numbers(t, cg, order, budget))


# the clique-graph equality, the 3rho and (9rho + t)/4 bounds, and the
# 2rho conjecture
_RECORDS = (
    ("clique-graph-gamma-eq-rho", "theorem", bounds.CLIQUE_GAMMA_EQ_RHO),
    ("rho-ge-clique-rho", "theorem", bounds.RHO_GE_CLIQUE_RHO),
    ("gamma-le-3rho", "theorem", bounds.GAMMA_LE_3RHO),
    ("gamma-le-9rho-plus-t-over-4", "theorem",
     bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4),
    ("gamma-le-2rho", "conjecture", bounds.GAMMA_LE_2RHO),
)


def certify_mop(g: Graph, graph_id: str = "mop",
                budget: int = DEFAULT_BUDGET
                ) -> tuple[dict, list[ScanRecord]]:
    """The certificates of g (triangulation, Tokunaga colors, the clique
    graph's minimum dominating set, its projection to g and the averaged
    one) and seven records: exact gamma and rho against the five bound
    records, then tokunaga-4cycle (the colors, which tokunaga_color has
    verified) and lift-packing-size (the clique graph's maximum packing
    lifted to the graph)."""
    f = mop_facts(g, budget)
    t, cg = f.triangulation, f.clique_graph
    projected = project_dominating(t, cg, f.cg_gamma.witness)
    averaged = averaged_dominating(t, projected, f.colors)
    lifted = lift_packing(t, f.dual, f.cg_rho.witness, cg)
    certs = dict(boundary=list(t.boundary),
                 triangles=[list(tri) for tri in t.triangles],
                 colors=list(f.colors),
                 clique_dominating=list(f.cg_gamma.witness),
                 projected_dominating=list(projected),
                 averaged_dominating=list(averaged))
    records = bounds.bound_records(
        _RECORDS, graph_id, "mop", g.n, f.gamma.value, f.rho.value,
        t=low_degree_count(g), cg_gamma=f.cg_gamma.value,
        cg_rho=f.cg_rho.value)
    base = dict(graph_id=graph_id, family="mop", n=g.n)
    return certs, records + [
        # tokunaga_color raised CertificateError unless verify_tokunaga
        # found no problem with f.colors
        ScanRecord(check="tokunaga-4cycle", kind="theorem", holds=True,
                   details={"problems": []}, **base),
        ScanRecord(check="lift-packing-size", kind="theorem",
                   holds=len(lifted) == f.cg_rho.value,
                   bound=bound_str(f.cg_rho.value),
                   details={"lifted": list(lifted)}, **base),
    ]
