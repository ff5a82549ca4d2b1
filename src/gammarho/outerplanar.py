"""Maximal outerplanar graphs (mops): the dominating/packing transfers
between the graph and the clique graph of its triangles, the clique
graph's gamma and rho, and the class's certificate bundle.  Recognition,
the dual tree, its walk with the Tokunaga 4-coloring, the clique graph and
the dynamic programme for gamma and rho live in `gammarho.triangulation`,
below `solvers`; their public names are re-exported here.

Every function here takes the `Triangulation` of one ear clipping and
reads the dual tree, the walk and the clique graph that it keeps, so the
pair solve (`solvers.solve_pair`, which routes the mop to the dual-tree
programme), the clique graph's numbers and the transfers share one build
of each.  `certify_mop` recognises g once and reads gamma and rho, the
projected and averaged dominating sets, the lifted packing, the class's
rows of the bound table (`gammarho.bounds`) and the two certificate checks
off that triangulation.

None of the four numbers needs search.  On the clique graph every closed
neighborhood is a subtree of the dual tree, so the dual tree is a host
tree for `solvers.host_tree_certificate`, gammarho's one gamma = rho
certificate, which returns a dominating set and a packing of equal size.
Each witness is checked before use; these answers report nodes = 0.  A
witness that fails its check is a bug in the construction, so it raises
CertificateError, never a search in its place.
"""

from __future__ import annotations

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
# the recognition, dual tree, clique graph and colouring names are
# re-exported here
from .triangulation import (
    DualTree,
    NotMaximalOuterplanar,
    Triangulation,
    build_clique_graph,
    build_dual,
    recognize_mop,
    tokunaga_color,
    verify_tokunaga,
)


def project_dominating(t: Triangulation,
                       nodes: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Union of the triangles of a clique-graph dominating set: a
    dominating set of the graph of at most 3x the size."""
    nodes = tuple(sorted(set(nodes)))
    bad = domination_violation(t.clique_graph, nodes)
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


def averaged_dominating(t: Triangulation, x_set: tuple[int, ...] | list[int]
                        ) -> tuple[int, ...]:
    """Best of the four color-triple prunings of X, by t's Tokunaga colors.

    For each color triple ijk, keep C = X restricted to those colors and
    add back U = vertices C misses.  The four U sets are pairwise disjoint
    and contain only vertices of degree <= 3, so the best candidate has
    size at most (3|X| + t)/4.
    """
    g = t.graph
    colors = t.walk[2]
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


def lift_packing(t: Triangulation,
                 z: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Lift a packing Z of the clique graph to an equal-size packing of the
    graph.  Root the dual tree at Z's first triangle.  Every other Z-node
    lifts the vertex of its triangle that is not on the edge to its parent
    (two triangles that share an edge share exactly that edge), and the
    root lifts its least vertex.

    The root needs no more care.  A vertex on the parent edge of a Z-node
    below the root lies in that Z-node's triangle; were it in the root's
    triangle too, the two Z-nodes would share it and so be adjacent in
    the clique graph, where Z is a packing.  So no such edge meets the
    root's triangle, and its least vertex avoids them all."""
    z_t = tuple(sorted(set(z)))
    if not z_t:
        raise ValueError("z must be nonempty")
    bad = packing_violation(t.clique_graph, z_t)
    if bad is not None:
        raise ValueError(f"z is not a packing of the clique graph: {bad}")
    tris = t.triangles
    parent = bfs_tree(t.dual.adj, z_t[0])[1]
    lifted = [min(tris[z_t[0]])]
    for u in z_t[1:]:
        (c,) = [v for v in tris[u] if v not in tris[parent[u]]]
        lifted.append(c)
    result = tuple(sorted(lifted))
    if len(result) != len(z_t):
        raise CertificateError("lifted packing lost vertices to collisions")
    bad_pair = packing_violation(t.graph, result)
    if bad_pair is not None:
        raise CertificateError(f"lifted set is not a packing: {bad_pair}")
    return result


def clique_graph_numbers(t: Triangulation) -> tuple[Solution, Solution]:
    """gamma and rho of t's clique graph, equal and certified without
    search by `host_tree_certificate` with the dual tree as host tree
    (nodes = 0).

    The triangles through one vertex form a path of the dual tree, so the
    closed neighborhood of a triangle in the clique graph, the union of the
    three paths through its vertices, is a subtree.  Its top is the first
    triangle in the walk's BFS order that meets it, and the visit takes the
    triangles by decreasing position of their top, so by non-increasing
    depth."""
    tris = t.triangles
    pos = [0] * len(tris)
    first: dict[int, int] = {}
    for p, i in enumerate(t.walk[0]):
        pos[i] = p
        for v in tris[i]:
            first.setdefault(v, i)
    top = [min((first[v] for v in tri), key=pos.__getitem__) for tri in tris]
    visit = sorted(range(len(tris)), key=lambda i: (-pos[top[i]], i))
    dom, pack = host_tree_certificate(t.clique_graph, top, visit)
    return (Solution(len(dom), dom, 0, "mop-walk"),
            Solution(len(pack), pack, 0, "mop-walk"))


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
    records, then tokunaga-4cycle (the colors, which the walk has
    verified) and lift-packing-size (the clique graph's maximum packing
    lifted to the graph)."""
    t = recognize_mop(g)
    gamma, rho = solve_pair(g, budget, t)
    cg_gamma, cg_rho = clique_graph_numbers(t)
    projected = project_dominating(t, cg_gamma.witness)
    averaged = averaged_dominating(t, projected)
    lifted = lift_packing(t, cg_rho.witness)
    certs = dict(boundary=list(t.boundary),
                 triangles=[list(tri) for tri in t.triangles],
                 colors=list(t.walk[2]),
                 clique_dominating=list(cg_gamma.witness),
                 projected_dominating=list(projected),
                 averaged_dominating=list(averaged))
    records = bounds.bound_records(
        _RECORDS, graph_id, "mop", g.n, gamma.value, rho.value,
        t=low_degree_count(g), cg_gamma=cg_gamma.value,
        cg_rho=cg_rho.value)
    base = dict(graph_id=graph_id, family="mop", n=g.n)
    return certs, records + [
        # the walk raised CertificateError unless verify_tokunaga found no
        # problem with its colors
        ScanRecord(check="tokunaga-4cycle", kind="theorem", holds=True,
                   details={"problems": []}, **base),
        ScanRecord(check="lift-packing-size", kind="theorem",
                   holds=len(lifted) == cg_rho.value,
                   bound=bound_str(cg_rho.value),
                   details={"lifted": list(lifted)}, **base),
    ]
