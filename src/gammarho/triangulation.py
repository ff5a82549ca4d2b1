"""Maximal outerplanar graphs (mops) as triangulations: recognition, the
dual tree, one walk of it, the clique graph of the triangles, and the
dynamic programme over the walk that gives gamma and rho of a mop without
search.

This module sits below `solvers`, which routes every mop component of a
pair solve through `mop_pair`, and below `outerplanar`, which builds the
class's certificates on the same triangulation and re-exports the public
names here.

Recognition is ear clipping with a reconstruction certificate: repeatedly
remove a degree-2 vertex whose neighbors are adjacent, then re-insert the
clipped vertices in reverse onto an explicit boundary cycle.  A clipped
vertex whose neighbors are no longer consecutive on that cycle exposes
inputs like the K_{2,3}-containing 2-trees that pure ear clipping would
wrongly accept.  The ears come off a min-heap of degree-2 vertices,
smallest id first.  Each re-inserted ear hangs off the triangle on the
boundary edge it goes onto: those links (`hinges`) are the dual tree, and
a third triangle on one edge finds no owner, which the reconstruction
rejects.

The triangle list is sorted lexicographically, so triangle indices (and
everything derived from them: dual tree, clique graph, colorings, lifted
packings) are independent of the clipping order.

One BFS of the dual tree (`_walk`) gives the frames that the programme
reads and the Tokunaga colors, verified once.  A triangulation builds its
dual tree, its walk and its clique graph on first use and keeps them
(`Triangulation.dual`, `Triangulation.walk`, `Triangulation.clique_graph`),
so the pair solve and the certificates of one mop share them, and every
function over a mop takes the triangulation alone.

The dual tree is a tree decomposition of width 2, so one dynamic
programme over it, with three states per vertex of each shared edge,
finds a minimum dominating set and, run with a second transition table, a
maximum packing, in linear time (domination and packing are
[sigma, rho]-problems in the sense of Telle and Proskurowski, SIAM J.
Discrete Math. 1997).  A triangle's table depends only on its shape and
its children's tables, and adding a constant to a child's table adds it
to every candidate sum, so the transitions are memoized across graphs on
tables taken up to an additive constant (`_Memo`): a step's key is the
programme and its two children's tables, None for an absent child.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import product

from .graphs import CertificateError, Graph, bfs_tree, is_dominating, is_packing


class NotMaximalOuterplanar(ValueError):
    """Input failed maximal outerplanar recognition; message names the
    violated condition."""


@dataclass(frozen=True)
class DualTree:
    """Tree on triangle indices; adjacent iff the triangles share an edge.
    `adj` lists each triangle's neighbours in ascending order, and `shared`
    maps each dual edge (i, j) with i < j to the shared graph edge."""

    adj: tuple[tuple[int, ...], ...]
    shared: dict[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Triangulation:
    graph: Graph
    boundary: tuple[int, ...]  # Hamiltonian outer cycle, canonical rotation
    triangles: tuple[tuple[int, int, int], ...]  # sorted triples, sorted list
    # one (i, j, u, w) per dual-tree edge, in clip order: triangles i < j
    # share the graph edge u < w
    hinges: tuple[tuple[int, int, int, int], ...]

    # built on first use and kept in the instance's __dict__, outside the
    # fields, so equality and hashing see the four fields only
    @cached_property
    def dual(self) -> DualTree:
        return build_dual(self)

    @cached_property
    def walk(self) -> tuple[list[int], list[_Frame], tuple[int, ...]]:
        """`_walk` of the dual tree: order, frames and verified colors."""
        return _walk(self, self.dual)

    @cached_property
    def clique_graph(self) -> Graph:
        return build_clique_graph(self)


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
    """Dual tree of the triangulation: triangles sharing an edge.  `_walk`
    checks that it is a tree."""
    adj: list[list[int]] = [[] for _ in t.triangles]
    shared = {}
    for i, j, u, w in t.hinges:
        adj[i].append(j)
        adj[j].append(i)
        shared[(i, j)] = (u, w)
    return DualTree(tuple(tuple(sorted(nbrs)) for nbrs in adj), shared)


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


def tokunaga_color(t: Triangulation) -> tuple[int, ...]:
    """4-coloring (colors 0..3), triangle 0 colored 0, 1, 2 by ascending
    vertex id, in which every pair of edge-sharing triangles spans all four
    colors on its 4-cycle; the walk verified it."""
    return t.walk[2]


def verify_tokunaga(t: Triangulation, colors: tuple[int, ...]) -> list[str]:
    """Empty list when proper and every edge-sharing triangle pair carries
    all four colors.  In a maximal outerplanar graph every 4-cycle arises
    from such a pair, so this checks the full 4-cycle property."""
    problems = [f"edge {u}-{v} monochromatic"
                for u, v in t.graph.edges() if colors[u] == colors[v]]
    tris = t.triangles
    for i, j in t.dual.shared:
        seen = {colors[v] for v in tris[i] + tris[j]}
        if seen != {0, 1, 2, 3}:
            problems.append(f"triangle pair {i},{j} shows colors {sorted(seen)}")
    return problems


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
    read 0, 1, 2 on triangle 0 gives the one such coloring.  The BFS
    checks that `dual` is a tree: k - 1 edges, and all k triangles
    reached."""
    tris = t.triangles
    adj = dual.adj
    k = len(tris)
    root = next((i for i in range(k) if len(adj[i]) <= 1), 0)
    order, parent = bfs_tree(adj, root)
    if len(dual.shared) != k - 1 or len(order) != k:
        raise CertificateError("triangle dual is not a tree")
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
    frames: list = [None] * k
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
    problems = verify_tokunaga(t, colors)
    if problems:
        raise CertificateError("tokunaga coloring failed: " + "; ".join(problems))
    return order, [tuple(f) for f in frames], colors


# Steps kept by the memo.  The set of tables is not finite (their spread
# grows with a fan's degree), so a walk that could take the memo past the
# cap clears it first.
MEMO_CAP = 1 << 13


class _Memo:
    """The steps of both programmes, shared by every walk.  A key is
    (dominate, left table, right table), each child's table taken minus its
    least entry (_INF stays _INF) and None for an absent child, so a leaf's
    key is (dominate, None, None).  Its value is the triangle's table minus
    its least entry, that entry, and the picks, a 9-tuple of winning rows.
    `kept` holds each table and each picks tuple once, so equal ones share
    memory and the keys hold the very tables the values return.  A step
    is a pure function of its key, so what the memo holds shows only in
    time and memory, never in an answer."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.steps: dict[tuple, tuple] = {}
        self.kept: dict[tuple, tuple] = {}

    def step(self, key: tuple) -> tuple:
        """The value of a step not yet seen, now remembered.  Every row of
        `_STEP[dominate]` runs in order, reading `_NO_CHILD` for an absent
        child, and a row wins only on a strictly smaller sum."""
        dominate, lt, rt = key
        lt = _NO_CHILD if lt is None else lt
        rt = _NO_CHILD if rt is None else rt
        best = [_INF] * 9
        pick = [None] * 9
        for row in _STEP[dominate]:
            v = lt[row[0]] + rt[row[1]] + row[3]
            if v < best[row[2]]:
                best[row[2]] = v
                pick[row[2]] = row
        low = min(best)
        table = tuple(v - low for v in best)
        picks = tuple(pick)
        kept = self.kept
        value = (kept.setdefault(table, table), low,
                 kept.setdefault(picks, picks))
        self.steps[key] = value
        return value


_MEMO = _Memo()


def _walk_dp(order: list[int], frames: list[_Frame], dominate: bool
             ) -> tuple[int, tuple[int, ...]]:
    """Size and members of a minimum dominating set (`dominate`) or of a
    maximum packing of the mop walked by `_walk`: one bottom-up pass
    filling a 9-entry table per triangle, then one top-down pass reading
    the best choices back.

    Each triangle's table is its step's table plus a constant, the step's
    least entry plus its children's constants.  A constant shifts every
    candidate sum of the step equally, so the picks, the size and the
    members are those of the tables themselves."""
    memo = _MEMO
    if len(memo.steps) > MEMO_CAP - len(frames):
        memo.clear()
    steps = memo.steps
    # one slot more than the triangles: index -1, an absent child, keeps
    # the table None and the constant 0
    tables: list = [None] * (len(frames) + 1)
    picks: list = [None] * len(frames)
    const = [0] * (len(frames) + 1)
    for i in reversed(order):
        _, _, _, left, right = frames[i]
        key = (dominate, tables[left], tables[right])
        value = steps.get(key) or memo.step(key)
        tables[i], low, picks[i] = value
        const[i] = low + const[left] + const[right]
    root = order[0]
    table = tables[root]
    k, cost = min(_CLOSE[dominate], key=lambda kc: table[kc[0]] + kc[1])
    size = table[k] + cost + const[root]
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


def mop_pair(t: Triangulation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A minimum dominating set and a maximum packing of the mop t.graph,
    from the programme over t's walk; CertificateError when either fails
    its check (its size as the programme counted it, dominating or
    packing)."""
    g = t.graph
    order, frames, _ = t.walk
    size, dom = _walk_dp(order, frames, True)
    if size != len(dom) or not is_dominating(g, dom):
        raise CertificateError("walk's dominating set failed its check")
    size, pack = _walk_dp(order, frames, False)
    if size != len(pack) or not is_packing(g, pack):
        raise CertificateError("walk's packing failed its check")
    return dom, pack
