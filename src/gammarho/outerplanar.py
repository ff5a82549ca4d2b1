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

`mop_facts` builds a graph's whole certificate state from that one ear
clipping, whose ears come off a min-heap of degree-2 vertices, smallest id
first.  Each re-inserted ear hangs off the triangle on the boundary edge
it goes onto: those links (`hinges`) are the dual tree, and a third
triangle on one edge finds no owner, which the reconstruction rejects.
`build_dual` and `build_clique_graph` make graphs of the links and of the
triangles at each vertex, and one BFS of the dual tree (`_walk`) gives the
frames that gamma and rho of the graph and of its clique graph are read
from, and the Tokunaga colors, verified once.  `certify_mop` reads the
projected and averaged dominating sets, the class's rows of the bound
table (`gammarho.bounds`) and the two certificate checks off it.

None of the four numbers needs search.  The dual tree is a tree
decomposition of width 2, so one dynamic programme over it, with three
states per vertex of each shared edge, finds a minimum dominating set and,
run with a second transition table, a maximum packing, in linear time
(domination and packing are [sigma, rho]-problems in the sense of Telle
and Proskurowski, SIAM J. Discrete Math. 1997).  On the clique graph every
closed neighborhood is a subtree of the dual tree, so the dual tree is a
host tree for `solvers.host_tree_certificate`, gammarho's one gamma = rho
certificate, which returns a dominating set and a packing of equal size.
Each witness is checked before use; these answers report nodes = 0.
Should a check ever fail, that number is searched for under the caller's
budget instead, which shows as nodes > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import product

from . import bounds
from .graphs import (
    CertificateError,
    Graph,
    bfs_tree,
    domination_violation,
    is_dominating,
    is_packing,
    packing_violation,
)
from .reports import ScanRecord, bound_str
from .solvers import (
    DEFAULT_BUDGET,
    Solution,
    domination_number,
    host_tree_certificate,
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
    # one (i, j, u, w) per dual-tree edge, in clip order: triangles i < j
    # share the graph edge u < w
    hinges: tuple[tuple[int, int, int, int], ...]


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

    # the smallest-id ear goes first.  Degrees only fall, so a vertex joins
    # the heap once, when its degree reaches 2, and one popped with another
    # degree or with nonadjacent neighbors can never become an ear
    adj = [set(nbrs) for nbrs in g.adj]
    heap = [v for v in range(n) if len(adj[v]) == 2]  # sorted, so a heap
    clips: list[tuple[int, int, int]] = []
    while len(clips) < n - 3:
        if not heap:
            raise NotMaximalOuterplanar(
                "no degree-2 vertex with adjacent neighbors to clip")
        v = heappop(heap)
        if len(adj[v]) != 2:
            continue
        u, w = sorted(adj[v])
        if w not in adj[u]:
            continue
        clips.append((v, u, w))
        for x in (u, w):
            adj[x].discard(v)
            if len(adj[x]) == 2:
                heappush(heap, x)

    a, b, c = sorted(set(range(n)).difference(v for v, _, _ in clips))
    if not (b in adj[a] and c in adj[a] and c in adj[b]):
        raise NotMaximalOuterplanar("clipping did not end on a triangle")

    # reconstruction: re-insert each ear between its two neighbors, which
    # must be consecutive on the boundary cycle; it hangs off own[u], the
    # triangle (by clip index, the final one last) on boundary edge u -> w
    k = n - 2
    nxt = [0] * n
    nxt[a], nxt[b], nxt[c] = b, c, a
    own = [k - 1] * n
    parent = [0] * (k - 1)
    for idx in range(k - 2, -1, -1):
        v, u, w = clips[idx]
        if nxt[w] == u:
            u, w = w, u
        elif nxt[u] != w:
            raise NotMaximalOuterplanar(
                f"vertices {u} and {w} are not consecutive on the boundary "
                f"when re-inserting {v}; graph is not outerplanar"
            )
        nxt[u], nxt[v] = v, w
        parent[idx] = own[u]
        own[u] = own[v] = idx

    boundary = [0]
    while nxt[boundary[-1]] != 0:
        boundary.append(nxt[boundary[-1]])
    if len(boundary) != n:
        raise NotMaximalOuterplanar("boundary reconstruction did not close a Hamiltonian cycle")
    if boundary[-1] < boundary[1]:
        # canonical rotation: start at 0, walk toward the smaller neighbor
        boundary[1:] = boundary[:0:-1]

    by_clip = [(v, u, w) if v < u else (u, v, w) if v < w else (u, w, v)
               for v, u, w in clips]  # sorted, as u < w
    by_clip.append((a, b, c))
    triangles = sorted(by_clip)
    index = {tri: i for i, tri in enumerate(triangles)}
    hinges = []
    for tri, par, (_, u, w) in zip(by_clip, parent, clips):
        i, j = sorted((index[tri], index[by_clip[par]]))
        hinges.append((i, j, u, w))
    return Triangulation(g, tuple(boundary), tuple(triangles), tuple(hinges))


def build_dual(t: Triangulation) -> DualTree:
    """Dual tree of the triangulation: triangles sharing an edge."""
    k = len(t.triangles)
    adj: list[list[int]] = [[] for _ in range(k)]
    shared = {}
    for i, j, u, w in t.hinges:
        adj[i].append(j)
        adj[j].append(i)
        shared[(i, j)] = (u, w)
    dual = Graph(k, adj)
    if not (dual.is_connected() and dual.m == k - 1):
        raise CertificateError("triangle dual is not a tree")
    return DualTree(dual, shared)


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


def tokunaga_color(t: Triangulation, dual: DualTree) -> tuple[int, ...]:
    """4-coloring (colors 0..3), triangle 0 colored 0, 1, 2 by ascending
    vertex id, in which every pair of edge-sharing triangles spans all four
    colors on its 4-cycle; `_walk` verified it.  `dual` is build_dual(t)."""
    return _walk(t, dual)[2]


def verify_tokunaga(t: Triangulation, colors: tuple[int, ...],
                    dual: DualTree) -> list[str]:
    """Empty list when proper and every edge-sharing triangle pair carries
    all four colors.  In a maximal outerplanar graph every 4-cycle arises
    from such a pair, so this checks the full 4-cycle property.  `dual` is
    build_dual(t)."""
    problems = [f"edge {u}-{v} monochromatic"
                for u, v in t.graph.edges() if colors[u] == colors[v]]
    tris = t.triangles
    for i, j in dual.shared:
        seen = {colors[v] for v in tris[i] + tris[j]}
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
    order, parent = bfs_tree(dual.graph.adj, root)

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


# ------------------------------------------- gamma and rho without search ----
#
# Domination and packing both constrain |N[v] & S| for every vertex v: at
# least 1 for a dominating set, at most 1 for a packing.  Walking the dual
# tree bottom-up, each vertex of the edge a triangle shares with its parent
# is in one of three states relative to the vertices already walked:
_IN, _HIT, _FREE = 0, 1, 2
# _IN: in S.  _HIT: not in S, with a walked neighbor in S (exactly one for
# a packing).  _FREE: not in S, no walked neighbor in S.  _COUNT is the
# number of walked neighbors in S that each state stands for; an _IN
# vertex of a packing has none, and for domination its count is moot.
_COUNT = (0, 1, 0)
_INF = float("inf")


def _settle(member: bool, count: int, dominate: bool) -> int | None:
    """State of a vertex with `count` neighbors in S so far; None when a
    packing already fails at it."""
    if member:
        return _IN if dominate or count == 0 else None
    if count == 0:
        return _FREE
    return _HIT if dominate or count == 1 else None


def _step_rows(dominate: bool) -> tuple[tuple[int, int, int, int], ...]:
    """Transitions of one triangle (p1, p2, c) of the walk, where c is the
    vertex it adds below the edge p1-p2.  Its children's tables are L over
    (p1, c) and R over (p2, c), each indexed 3 * state + state; c is settled
    against both and against p1 and p2, and the triangle's table over
    (p1, p2) takes entry k = L[iL] + R[iR] + cost from row (iL, iR, k,
    cost).  Costs count c into S, negated for a packing, so both walks
    minimize."""
    sign = 1 if dominate else -1
    rows = []
    for l1, lc, r2, rc in product(range(3), repeat=4):
        in_c = lc == _IN
        if (rc == _IN) != in_c:
            continue
        in1, in2 = l1 == _IN, r2 == _IN
        c = _settle(in_c, _COUNT[lc] + _COUNT[rc] + in1 + in2, dominate)
        if c is None or (dominate and c == _FREE):
            continue
        s1 = _settle(in1, _COUNT[l1] + in_c, dominate)
        s2 = _settle(in2, _COUNT[r2] + in_c, dominate)
        if s1 is None or s2 is None:
            continue
        rows.append((3 * l1 + lc, 3 * r2 + rc, 3 * s1 + s2, sign * in_c))
    return tuple(rows)


def _close_rows(dominate: bool) -> tuple[tuple[int, int], ...]:
    """(k, cost) for every entry k of the root's table over its own
    (p1, p2) that settles both ends across the edge p1-p2."""
    sign = 1 if dominate else -1
    rows = []
    for s1, s2 in product(range(3), repeat=2):
        in1, in2 = s1 == _IN, s2 == _IN
        f1 = _settle(in1, _COUNT[s1] + in2, dominate)
        f2 = _settle(in2, _COUNT[s2] + in1, dominate)
        if f1 is None or f2 is None or (dominate and _FREE in (f1, f2)):
            continue
        rows.append((3 * s1 + s2, sign * (in1 + in2)))
    return tuple(rows)


# the table of an absent child: no walked vertex, so nothing is _HIT
_NO_CHILD = tuple(_INF if _HIT in (s1, s2) else 0
                  for s1 in range(3) for s2 in range(3))
_STEP = {d: _step_rows(d) for d in (True, False)}
_CLOSE = {d: _close_rows(d) for d in (True, False)}


def _shape_rows(dominate: bool) -> tuple:
    """`_STEP`'s rows specialised by the shape of a triangle, kept in
    their order: the (table, picks) that every leaf gets; the
    (iL, k, cost, row) rows of a triangle with only a left child and the
    (iR, k, cost, row) rows of one with only a right child; and the
    (iL, iR, k, cost, row) rows of one with both.  A row that reads an
    absent child's _INF entry never wins, so it is dropped; the absent
    child's other entries are 0 and drop out of the sum."""
    step = _STEP[dominate]
    table = [_INF] * 9
    picks: list = [None] * 9
    for row in step:
        v = _NO_CHILD[row[0]] + _NO_CHILD[row[1]] + row[3]
        if v < table[row[2]]:
            table[row[2]] = v
            picks[row[2]] = row
    left = tuple((r[0], r[2], r[3], r) for r in step if _NO_CHILD[r[1]] == 0)
    right = tuple((r[1], r[2], r[3], r) for r in step if _NO_CHILD[r[0]] == 0)
    both = tuple((*r, r) for r in step)
    return (tuple(table), tuple(picks)), left, right, both


_SHAPES = {d: _shape_rows(d) for d in (True, False)}


_Frame = tuple[int, int, int, int, int]


def _walk(t: Triangulation, dual: DualTree
          ) -> tuple[list[int], list[_Frame], tuple[int, ...]]:
    """The dual tree rooted at its first leaf, an ear: its triangles
    parents first, the frame (p1, p2, c, left, right) of each, and the
    Tokunaga colors, verified.  Triangle i adds vertex c below the edge
    p1-p2 it shares with its parent, and its children lie across p1-c
    (left) and p2-c (right), -1 when absent.  The root's p1-p2 edge holds
    the ear's degree-2 vertex, so the root has no right child.  Vertex c
    takes the color its parent triangle lacks, 6 minus the sum of that
    triangle's; every color is forced by the root's, so renaming them to
    read 0, 1, 2 on triangle 0 gives the one such coloring."""
    tris = t.triangles
    adj = dual.graph.adj
    root = next(i for i in range(len(tris)) if len(adj[i]) <= 1)
    if adj[root]:
        child = adj[root][0]
        x, y = dual.shared[(min(root, child), max(root, child))]
        (z,) = [v for v in tris[root] if v != x and v != y]
        start = [y, z, x, -1, -1]
    else:  # a lone triangle
        start = [*tris[root], -1, -1]
    colors = [-1] * t.graph.n
    for color, v in enumerate(start[:3]):
        colors[v] = color
    order, parent = bfs_tree(adj, root)
    frames: list = [None] * len(tris)
    frames[root] = start
    for u in order[1:]:
        frame = frames[parent[u]]
        p1, p2, c = frame[:3]
        tri = tris[u]
        # u shares p1-c (left) or p2-c (right) with its parent
        side, end = (3, p1) if p1 in tri else (4, p2)
        (new,) = [v for v in tri if v != end and v != c]
        if colors[new] != -1:
            # triangles containing a vertex form a dual subtree, so the new
            # vertex of a child is always fresh
            raise CertificateError(f"vertex {new} colored twice")
        colors[new] = 6 - colors[p1] - colors[p2] - colors[c]
        frame[side] = u
        frames[u] = [end, c, new, -1, -1]
    rename = [3] * 4
    for color, v in enumerate(tris[0]):
        rename[colors[v]] = color
    colors = tuple(rename[color] for color in colors)
    problems = verify_tokunaga(t, colors, dual)
    if problems:
        raise CertificateError("tokunaga coloring failed: " + "; ".join(problems))
    return order, [tuple(f) for f in frames], colors


def _walk_dp(order: list[int], frames: list[_Frame], dominate: bool
             ) -> tuple[int, tuple[int, ...]]:
    """Size and members of a minimum dominating set (`dominate`) or of a
    maximum packing of the mop walked by `_walk`: one bottom-up pass
    filling a 9-entry table per triangle, then one top-down pass reading
    the best choices back.  Each triangle runs only the `_SHAPES` rows of
    its shape (leaf, left child only, right child only, both children):
    every leaf shares one precomputed table and picks, and the rows kept
    are in `_STEP`'s order, so ties resolve as over all rows."""
    (leaf_table, leaf_picks), left_rows, right_rows, both_rows = (
        _SHAPES[dominate])
    tables: list = [None] * len(frames)
    picks: list = [None] * len(frames)
    for i in reversed(order):
        _, _, _, left, right = frames[i]
        if left < 0 and right < 0:
            tables[i] = leaf_table
            picks[i] = leaf_picks
            continue
        best = [_INF] * 9
        pick = [None] * 9
        if left >= 0 and right >= 0:
            lt, rt = tables[left], tables[right]
            for a, b, k, cost, row in both_rows:
                v = lt[a] + rt[b] + cost
                if v < best[k]:
                    best[k] = v
                    pick[k] = row
        else:
            ct, rows = ((tables[left], left_rows) if left >= 0
                        else (tables[right], right_rows))
            for a, k, cost, row in rows:
                v = ct[a] + cost
                if v < best[k]:
                    best[k] = v
                    pick[k] = row
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


def _mop_numbers(g: Graph, order: list[int], frames: list[_Frame],
                 budget: int) -> tuple[Solution, Solution]:
    """gamma(g) and rho(g) from the dual-tree walk of g once its sets check
    out (nodes = 0), else by search under `budget`."""
    size, dom = _walk_dp(order, frames, True)
    if size == len(dom) and is_dominating(g, dom):
        gamma = Solution(size, dom, 0)
    else:
        gamma = domination_number(g, budget)
    size, pack = _walk_dp(order, frames, False)
    if size == len(pack) and is_packing(g, pack):
        rho = Solution(size, pack, 0)
    else:
        rho = packing_number(g, budget)
    return gamma, rho


def _clique_numbers(t: Triangulation, cg: Graph, order: list[int],
                    budget: int) -> tuple[Solution, Solution]:
    """gamma and rho of the clique graph cg of t, from
    `host_tree_certificate` with the dual tree as host tree (nodes = 0),
    else by search under `budget`.  `order` is a BFS order of the dual
    tree.

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
        return domination_number(cg, budget), packing_number(cg, budget)
    dom, pack = cert
    return Solution(len(dom), dom, 0), Solution(len(pack), pack, 0)


def clique_graph_numbers(t: Triangulation, budget: int = DEFAULT_BUDGET
                         ) -> tuple[Solution, Solution]:
    """gamma and rho of t's clique graph, equal and certified without
    search, from the same builds and walk as `mop_facts`."""
    dual = build_dual(t)
    cg = build_clique_graph(t)
    return _clique_numbers(t, cg, _walk(t, dual)[0], budget)


def mop_facts(g: Graph, budget: int = DEFAULT_BUDGET) -> MopFacts:
    """Recognize g, build its dual tree and clique graph, walk the dual tree
    once for the frames and Tokunaga colors, and take gamma and rho of g and
    of the clique graph, in that order, from that walk.  Search runs only
    where a check fails; the first to exhaust `budget` raises BudgetExceeded."""
    t = recognize_mop(g)
    dual = build_dual(t)
    cg = build_clique_graph(t)
    order, frames, colors = _walk(t, dual)
    return MopFacts(t, dual, cg, colors,
                    *_mop_numbers(g, order, frames, budget),
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
