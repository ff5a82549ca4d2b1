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
(`bicubic_layers`, which `decompose` shares) and evaluates the exact numbers against the rows of the bound table
(`gammarho.bounds`) that the class carries: gamma <= 5n/14 for n >= 9,
rho >= 7n/48 for n >= 16 and 49*gamma <= 120*rho, plus the open
conjecture gamma <= 2*rho + 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from . import bounds
from .graphs import (
    BipartiteLabeling,
    CertificateError,
    Graph,
    bipartition,
    packing_violation,
    square_restricted,
)
from .reports import ScanRecord
from .solvers import DEFAULT_BUDGET, domination_number, packing_number


@dataclass(frozen=True)
class BrooksColoring:
    colors: tuple[int, ...]
    num_colors: int
    method: str


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
    degs = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    removed = []
    while alive:
        v = min(alive, key=lambda x: (degs[x], x))
        removed.append(v)
        alive.remove(v)
        for u in g.adj[v]:
            if u in alive:
                degs[u] -= 1
    return removed[::-1]


def _reverse_bfs_order(g: Graph, root: int, allowed: set[int]) -> list[int]:
    """BFS inside `allowed` from root, visit order reversed (root last)."""
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if u in allowed and u not in seen:
                seen.add(u)
                order.append(u)
                queue.append(u)
    return order[::-1]


def _articulation_vertex(g: Graph) -> int | None:
    """Smallest cut vertex, None when 2-connected.  Plain n connectivity
    checks, fine at the sizes this package handles."""
    for c in range(g.n):
        if not _connected_without(g, {c}):
            return c
    return None


def _cycle_walk(g: Graph) -> list[int]:
    walk = [0]
    prev = -1
    cur = 0
    while True:
        nxt = [u for u in g.adj[cur] if u != prev]
        step = min(nxt)
        if step == 0:
            return walk
        walk.append(step)
        prev, cur = cur, step


def brooks_color(g: Graph) -> BrooksColoring:
    """Constructive Brooks coloring of a connected graph.

    Complete graphs get n colors and odd cycles 3; everything else gets at
    most max_degree colors.  The regular 2-connected case pre-colors two
    nonadjacent neighbors u, w of a vertex v alike and greedy-colors the
    rest in reverse BFS order from v; regular graphs with a cut vertex are
    colored lobe by lobe with the cut vertex pinned to color 0; the
    non-regular case is smallest-last greedy.
    """
    if g.n == 0:
        return BrooksColoring((), 0, "empty")
    if not g.is_connected():
        raise ValueError("brooks_color requires a connected graph")
    delta = g.max_degree()
    if g.m == g.n * (g.n - 1) // 2:
        colors = tuple(range(g.n))
        return _finish(g, colors, "complete", g.n)
    if delta == 2 and g.m == g.n:
        walk = _cycle_walk(g)
        colors = [0] * g.n
        for i, v in enumerate(walk):
            colors[v] = i % 2
        if g.n % 2 == 1:
            colors[walk[-1]] = 2
            return _finish(g, tuple(colors), "odd-cycle", 3)
        return _finish(g, tuple(colors), "even-cycle", 2)
    if not g.is_regular():
        order = _smallest_last_order(g)
        colors = _greedy_color(g, order, {})
        return _finish(g, tuple(colors), "smallest-last", delta)
    cut = _articulation_vertex(g)
    if cut is not None:
        colors = [-1] * g.n
        rest = [v for v in range(g.n) if v != cut]
        comp_graph, originals = g.induced(rest)
        for comp in comp_graph.components():
            lobe = {originals[v] for v in comp} | {cut}
            order = _reverse_bfs_order(g, cut, lobe)
            # the order holds lobe vertices only, so the greedy colors
            # each lobe from fresh colors
            local = _greedy_color(g, order, {})
            # pin the cut vertex to color 0 by swapping within the lobe
            cc = local[cut]
            for v in lobe:
                if v == cut or local[v] == -1:
                    continue
                if local[v] == cc:
                    colors[v] = 0
                elif local[v] == 0:
                    colors[v] = cc
                else:
                    colors[v] = local[v]
            colors[cut] = 0
        return _finish(g, tuple(colors), "cut-vertex", delta)
    triple = _find_splice_triple(g)
    if triple is not None:
        v, u, w = triple
        allowed = set(range(g.n)) - {u, w}
        order = _reverse_bfs_order(g, v, allowed)
        colors = _greedy_color(g, order, {u: 0, w: 0})
        return _finish(g, tuple(colors), "splice", delta)
    # theory says a 2-connected regular non-complete non-cycle graph always
    # has a splice triple; keep a checked fallback anyway
    order = _smallest_last_order(g)
    colors = _greedy_color(g, order, {})
    return _finish(g, tuple(colors), "fallback", delta)


def _find_splice_triple(g: Graph) -> tuple[int, int, int] | None:
    """(v, u, w) with u, w nonadjacent neighbors of v and g - {u, w} still
    connected; first such triple in id order."""
    for v in range(g.n):
        nbrs = g.adj[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                u, w = nbrs[i], nbrs[j]
                if g.has_edge(u, w):
                    continue
                if _connected_without(g, {u, w}):
                    return (v, u, w)
    return None


def _connected_without(g: Graph, removed: set[int]) -> bool:
    return g.induced([v for v in range(g.n) if v not in removed])[0].is_connected()


def _finish(g: Graph, colors: tuple[int, ...], method: str, promised: int) -> BrooksColoring:
    for u, v in g.edges():
        if colors[u] == colors[v]:
            raise CertificateError(f"improper coloring: edge {u}-{v} got color {colors[u]}")
    used = 1 + max(colors) if colors else 0
    if used > promised:
        raise CertificateError(
            f"{method} coloring used {used} colors, promised at most {promised}"
        )
    return BrooksColoring(colors, used, method)


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


def side_packing(g: Graph, side: Sequence[int]) -> tuple[int, ...]:
    """Packing inside one bipartition side with 6 * |result| >= |side|.

    Requires a bicubic graph on n >= 16 vertices (below that the
    restricted square can be complete and the 1/6 guarantee is void; the
    small orders are handled exhaustively by the exact solver instead).
    """
    labeling = validate_bicubic(g)
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
    coloring = brooks_color(gp)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(coloring.colors):
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

    Verifies every identity the counting argument uses; violations on
    validated input are implementation bugs and raise CertificateError.
    """
    validate_bicubic(g)
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
    extended to a maximal one."""
    labeling = validate_bicubic(g)
    p = side_packing(g, labeling.side_x) if g.n >= 16 else ()
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
    gamma = domination_number(g, budget)
    rho = packing_number(g, budget)
    return certs, bounds.bound_records(_RECORDS, graph_id, "bicubic", g.n,
                                       gamma.value, rho.value)
