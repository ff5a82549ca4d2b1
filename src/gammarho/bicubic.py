"""Connected cubic bipartite ("bicubic") machinery.

The packing lower bound rho >= 7n/48 comes out of two constructive
pieces:

* side_packing: color the square graph restricted to one side (edges join
  side vertices with a common neighbor) with a constructive Brooks
  coloring.  That graph is connected with max degree <= 6 and, once
  n >= 16, cannot be complete, so 6 colors suffice and the largest color
  class is a packing of size >= |side|/6.

* layer_decompose: starting from an inclusion-maximal packing P inside
  side X, peel the layers Q = N(P), R = N(Q) minus P, S = N(R) minus Q,
  take a maximal packing T inside S and W = N(T).  Cubic regularity gives
  |Q| = 3|P|, |W| = 3|T| and |S| <= 4|T|, and P together with T is again
  a packing because the two sit on opposite sides with no edges between
  them.

certify_bicubic builds the side packing and the layers once
(`bicubic_layers`, which `decompose` shares) and evaluates the exact
numbers against the rows of the bound table
(`gammarho.bounds`) that the class carries: gamma <= 5n/14 for n >= 9,
rho >= 7n/48 for n >= 16 and 49*gamma <= 120*rho, plus the open
conjecture gamma <= 2*rho + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

from . import bounds
from .graphs import (
    BipartiteLabeling,
    CertificateError,
    Graph,
    bfs_tree,
    bipartition,
    packing_violation,
    square_restricted,
)
from .reports import ScanRecord
from .solvers import DEFAULT_BUDGET, solve_pair


@dataclass(frozen=True)
class LayerDecomposition:
    labeling: BipartiteLabeling
    p: tuple[int, ...]
    q: tuple[int, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]
    t: tuple[int, ...]
    w: tuple[int, ...]


def _greedy_color(g: Graph, order: Sequence[int], pre: dict[int, int]) -> list[int]:
    colors = [-1] * g.n
    for v, c in pre.items():
        colors[v] = c
    for v in order:
        if colors[v] != -1:
            continue
        used = {colors[u] for u in g.adj[v] if colors[u] != -1}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _smallest_last_order(g: Graph) -> list[int]:
    """The vertices in smallest-last order (Matula and Beck, J. ACM 1983):
    repeatedly remove the vertex of least degree among those left, lowest
    id on ties, and list them from the last removed.  A heap of (degree,
    vertex) gets a new entry whenever a degree falls; an entry whose vertex
    is gone or whose degree is out of date is skipped when popped, so the
    order takes O(m log n)."""
    degs = [len(a) for a in g.adj]
    heap = [(d, v) for v, d in enumerate(degs)]
    heapify(heap)
    alive = [True] * g.n
    removed = []
    while heap:
        d, v = heappop(heap)
        if not alive[v] or d != degs[v]:
            continue
        alive[v] = False
        removed.append(v)
        for u in g.adj[v]:
            if alive[u]:
                degs[u] -= 1
                heappush(heap, (degs[u], u))
    return removed[::-1]


def _brooks_color(g: Graph) -> list[int]:
    """Colours of a restricted square g (see `side_packing`), at most
    max_degree of them, constructively as in Brooks' theorem.  A
    non-regular g is coloured greedily in smallest-last order: every
    subgraph of a connected non-regular graph has a vertex of degree below
    Delta.  A regular g gets the same colour on two nonadjacent neighbours
    u, w of a vertex v such that g - {u, w} is connected (a splice triple),
    and the rest greedily in reverse BFS order from v (`bfs_tree` on
    g - {u, w}, read back through `induced`'s originals), so each vertex
    but v has an uncoloured neighbour when coloured and v sees u and w
    alike.

    Brooks' other cases never reach this function.  `side_packing`
    rejects a complete square first.  Each vertex of the other side puts a
    triangle into the square, and a side has at least 8 vertices, so the
    square is no cycle.  A connected k-regular bipartite graph has no cut
    vertex (a component of G - v takes k(b - a) of v's k edges, hence all
    of them), and a path in G - x gives one in the square - x, so a
    regular square is 2-connected.  With Delta >= 3 and not complete, it
    has a splice triple (Lovasz 1975); should none be found, that is a
    CertificateError."""
    if not g.is_regular():
        return _greedy_color(g, _smallest_last_order(g), {})
    for v in range(g.n):
        nbrs = g.adj[v]
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if g.has_edge(u, w):
                    continue
                sub, originals = g.induced(set(range(g.n)) - {u, w})
                if sub.is_connected():
                    order = bfs_tree(sub.adj, originals.index(v))[0]
                    return _greedy_color(g, [originals[x] for x in order[::-1]],
                                         {u: 0, w: 0})
    raise CertificateError("regular restricted square has no splice triple")


def validate_bicubic(g: Graph) -> BipartiteLabeling:
    """Nonempty + connected + 3-regular + bipartite, else ValueError."""
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if not g.is_regular(3):
        raise ValueError("graph is not cubic")
    labeling = bipartition(g)
    if labeling is None:
        raise ValueError("graph is not bipartite")
    return labeling


def side_packing(g: Graph, labeling: BipartiteLabeling,
                 side: Sequence[int]) -> tuple[int, ...]:
    """Packing inside one bipartition side with 6 * |result| >= |side|.

    Requires a bicubic graph on n >= 16 vertices (below that the
    restricted square can be complete and the 1/6 guarantee is void; the
    small orders are handled exhaustively by the exact solver instead),
    and `labeling` is what `validate_bicubic(g)` returned.  The result is
    still checked: a packing of g inside `side` with 6 * |result| >=
    |side|, or CertificateError.
    """
    if g.n < 16:
        raise ValueError("side_packing needs n >= 16")
    side_t = tuple(sorted(side))
    if side_t not in (labeling.side_x, labeling.side_y):
        raise ValueError("side is not a bipartition side of g")
    sq = square_restricted(g, side_t)
    gp = sq.graph
    if not gp.is_connected():
        raise CertificateError("restricted square of a connected bicubic graph must be connected")
    if gp.max_degree() > 6:
        raise CertificateError("restricted square degree exceeded 6 on a cubic graph")
    if gp.m == gp.n * (gp.n - 1) // 2:
        raise CertificateError("restricted square is complete despite n >= 16")
    colors = _brooks_color(gp)
    for u, v in gp.edges():
        if colors[u] == colors[v]:
            raise CertificateError(f"improper coloring: edge {u}-{v} got color {colors[u]}")
    if max(colors) >= gp.max_degree():
        raise CertificateError(f"coloring used {max(colors) + 1} colors, "
                               f"more than max degree {gp.max_degree()}")
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    best_color = min(classes, key=lambda c: (-len(classes[c]), c))
    chosen = tuple(sorted(sq.originals[v] for v in classes[best_color]))
    if 6 * len(chosen) < len(side_t):
        raise CertificateError("largest color class fell below |side|/6")
    bad = packing_violation(g, chosen)
    if bad is not None:
        raise CertificateError(f"side packing has vertices at distance <= 2: {bad}")
    return chosen


def maximal_packing_in(g: Graph, pool: Sequence[int], base: Sequence[int] = ()) -> tuple[int, ...]:
    """Greedily extend `base` to an inclusion-maximal packing using pool
    vertices in ascending id order."""
    taken = 0
    chosen = []
    for v in sorted(set(base)):
        if taken & g.closed_masks[v]:
            raise ValueError("base is not a packing")
        taken |= g.closed_masks[v]
        chosen.append(v)
    for v in sorted(set(pool)):
        if taken & g.closed_masks[v] == 0:
            taken |= g.closed_masks[v]
            chosen.append(v)
    return tuple(sorted(chosen))


def layer_decompose(g: Graph, labeling: BipartiteLabeling,
                    p: Sequence[int]) -> LayerDecomposition:
    """Peel the P, Q, R, S, T, W layers from a maximal packing P in side X.

    `labeling` is what `validate_bicubic(g)` returned.  Verifies every
    identity the counting argument uses; violations on validated input are
    implementation bugs and raise CertificateError.
    """
    x_set = set(labeling.side_x)
    y_set = set(labeling.side_y)
    p_t = tuple(sorted(set(p)))
    if not p_t:
        raise ValueError("p must be nonempty")
    if not set(p_t) <= x_set:
        raise ValueError("p is not contained in side X")
    bad = packing_violation(g, p_t)
    if bad is not None:
        raise ValueError(f"p is not a packing: vertices {bad} are within distance 2")
    pmask = 0
    for v in p_t:
        pmask |= g.closed_masks[v]
    for x in labeling.side_x:
        if x not in set(p_t) and g.closed_masks[x] & pmask == 0:
            raise ValueError(f"p is not maximal in X: vertex {x} could be added")

    q = sorted({u for v in p_t for u in g.adj[v]})
    r = sorted({u for v in q for u in g.adj[v]} - set(p_t))
    s = sorted({u for v in r for u in g.adj[v]} - set(q))
    if set(p_t) | set(r) != x_set:
        raise CertificateError("X != P union R")
    if set(q) | set(s) != y_set:
        raise CertificateError("Y != Q union S")
    if len(q) != 3 * len(p_t):
        raise CertificateError("|Q| != 3|P| on a cubic graph")
    t = maximal_packing_in(g, s)
    w = sorted({u for v in t for u in g.adj[v]})
    if not set(w) <= set(r):
        raise CertificateError("W = N(T) escaped R")
    if len(w) != 3 * len(t):
        raise CertificateError("|W| != 3|T| on a cubic graph")
    wset = set(w)
    for v in set(s) - set(t):
        if not any(u in wset for u in g.adj[v]):
            raise CertificateError(f"vertex {v} in S-T has no neighbor in W")
    if len(s) > 4 * len(t):
        raise CertificateError("|S| > 4|T| breaks the counting argument")
    return LayerDecomposition(labeling, p_t, tuple(q), tuple(r), tuple(s), tuple(t), tuple(w))


def combined_packing(g: Graph, layers: LayerDecomposition) -> tuple[int, ...]:
    """P union T: a packing of the whole graph (P and T live on opposite
    sides and T avoids N(P), so no pair comes within distance 2)."""
    union = tuple(sorted(layers.p + layers.t))
    bad = packing_violation(g, union)
    if bad is not None:
        raise CertificateError(f"P union T not a packing: {bad}")
    return union


# the three bounds the class carries, then the open conjecture
_RECORDS = (
    ("gamma-le-5n-14", "theorem", bounds.GAMMA_LE_5N_14),
    ("rho-ge-7n-48", "theorem", bounds.RHO_GE_7N_48),
    ("gamma-le-120-49-rho", "theorem", bounds.GAMMA_LE_120_49_RHO),
    ("gamma-le-2rho-plus-1", "conjecture", bounds.GAMMA_LE_2RHO_PLUS_1),
)


def bicubic_layers(g: Graph) -> tuple[BipartiteLabeling, tuple[int, ...],
                                     LayerDecomposition]:
    """The bipartition of the bicubic graph g, its side packing (empty
    below 16 vertices), and the layer decomposition of that packing
    extended to a maximal one.  g is validated once, here; the labeling
    that the validation returns is handed on to the certificates."""
    labeling = validate_bicubic(g)
    p = side_packing(g, labeling, labeling.side_x) if g.n >= 16 else ()
    full = maximal_packing_in(g, labeling.side_x, p)
    return labeling, p, layer_decompose(g, labeling, full)


def certify_bicubic(g: Graph, graph_id: str = "bicubic",
                    budget: int = DEFAULT_BUDGET
                    ) -> tuple[dict, list[ScanRecord]]:
    """The certificates of g (side packing from n = 16, the P..W layers and
    the combined packing P union T) and the exact gamma and rho versus the
    class bounds; a bound claimed only from a larger order gives no
    record."""
    _, p, layers = bicubic_layers(g)
    certs: dict = {"side_packing": list(p)} if g.n >= 16 else {}
    certs["layers"] = {tag: list(getattr(layers, tag)) for tag in "pqrstw"}
    certs["combined_packing"] = list(combined_packing(g, layers))
    gamma, rho = solve_pair(g, budget)
    return certs, bounds.bound_records(_RECORDS, graph_id, "bicubic", g.n,
                                       gamma.value, rho.value)
