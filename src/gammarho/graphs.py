"""Small immutable graph type plus the handful of primitives everything
else is built on: a BFS tree (`bfs_tree`, the package's one breadth-first
walk) with the BFS distances and the bipartition read off it, packing /
domination checks, and the restricted square graph used by the bicubic
machinery.

Vertices are dense integers 0..n-1.  Neighbor lists are kept sorted so that
every iteration order in the package is deterministic and certificates are
reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class CertificateError(RuntimeError):
    """A constructed certificate failed its own validity check.

    This signals an implementation bug (the constructions are backed by
    proofs), never bad input data.  Bad input raises ValueError instead.
    """


class Graph:
    """Undirected simple graph, immutable after construction.

    The edge count `m` is stored at construction.  The connected
    components are found on first use and kept, since classification,
    validation and the solvers all ask for them."""

    __slots__ = ("n", "m", "adj", "closed_masks", "_components")

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency list length does not match n")
        self.n = n
        self.adj = tuple(tuple(sorted(set(nbrs))) for nbrs in adj)
        self.m = sum(map(len, self.adj)) // 2
        masks = []
        for v, nbrs in enumerate(self.adj):
            m = 1 << v
            for u in nbrs:
                if u == v:
                    raise ValueError(f"loop at vertex {v}")
                if not 0 <= u < n:
                    raise ValueError(f"vertex {u} out of range in adj[{v}]")
                m |= 1 << u
            masks.append(m)
        self.closed_masks = tuple(masks)
        self._components: tuple[tuple[int, ...], ...] | None = None
        # symmetry check; from_edges always satisfies it, hand-built adj may not
        for v in range(n):
            for u in self.adj[v]:
                if v not in self.adj[u]:
                    raise ValueError(f"edge {v}-{u} not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge iterable.  Duplicate edges collapse;
        loops and out-of-range endpoints raise."""
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def is_regular(self, k: int | None = None) -> bool:
        if self.n == 0:
            return True
        degs = {len(nbrs) for nbrs in self.adj}
        if len(degs) != 1:
            return False
        return True if k is None else degs == {k}

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the connected components, each sorted, in order
        of their smallest vertex."""
        if self._components is None:
            self._components = self._find_components()
        return self._components

    def _find_components(self) -> tuple[tuple[int, ...], ...]:
        # the walk of `bfs_tree` with one `seen` list for all components;
        # `bfs_tree` itself allocates n parents per call, which many small
        # components would make quadratic
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            for v in comp:  # the list grows while it is walked
                for u in self.adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.components()) == 1

    def is_tree(self) -> bool:
        return self.is_connected() and self.m == self.n - 1

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `vertices`.  Returns (subgraph, originals)
        where originals[i] is the old id of new vertex i.  On all of the
        vertices that is the graph itself (it is immutable) and the
        identity map."""
        originals = tuple(sorted(set(vertices)))
        if originals == tuple(range(self.n)):
            return self, originals
        index = {v: i for i, v in enumerate(originals)}
        adj = [[index[u] for u in self.adj[v] if u in index] for v in originals]
        return Graph(len(originals), adj), originals

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class BipartiteLabeling:
    """The two sides of a bipartition, each a sorted vertex tuple."""

    side_x: tuple[int, ...]
    side_y: tuple[int, ...]


@dataclass(frozen=True)
class RestrictedSquare:
    """Square graph restricted to one side: vertices are the side members,
    edges join members at distance exactly 2 in the base graph.  Keeps the
    original ids so packings can be pulled back."""

    graph: Graph
    originals: tuple[int, ...]


def bfs_tree(adj: Sequence[Sequence[int]], root: int
             ) -> tuple[list[int], list[int]]:
    """(order, parent): the BFS order of `root`'s component, visiting each
    vertex's neighbours in list order, and each vertex's parent in that
    BFS tree, -1 at the root and off the root's component."""
    parent = [-1] * len(adj)
    parent[root] = root  # marks the root seen until the walk ends
    order = [root]
    for v in order:  # the list grows while it is walked
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    parent[root] = -1
    return order, parent


def distances_from(g: Graph, source: int) -> list[float]:
    """BFS distances from `source`; unreachable vertices get math.inf."""
    order, parent = bfs_tree(g.adj, source)
    dist: list[float] = [math.inf] * g.n
    dist[source] = 0
    for v in order[1:]:
        dist[v] = dist[parent[v]] + 1
    return dist


def packing_violation(g: Graph, vertices: Iterable[int]) -> tuple[int, int] | None:
    """Return a pair at distance <= 2, or None if `vertices` is a packing.

    A set is a packing iff closed neighborhoods are pairwise disjoint,
    which is the same as pairwise distance >= 3.
    """
    vs = sorted(set(vertices))
    taken = 0
    owner: dict[int, int] = {}
    for v in vs:
        mask = g.closed_masks[v]
        if taken & mask:
            clash = taken & mask
            w = (clash & -clash).bit_length() - 1  # lowest shared vertex
            return (owner[w], v)
        taken |= mask
        m = mask
        while m:
            bit = m & -m
            owner[bit.bit_length() - 1] = v
            m ^= bit
    return None


def is_packing(g: Graph, vertices: Iterable[int]) -> bool:
    return packing_violation(g, vertices) is None


def domination_violation(g: Graph, vertices: Iterable[int]) -> int | None:
    """Return an undominated vertex, or None if `vertices` dominates g."""
    covered = 0
    for v in set(vertices):
        covered |= g.closed_masks[v]
    full = (1 << g.n) - 1
    missing = full & ~covered
    if missing:
        return (missing & -missing).bit_length() - 1
    return None


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    return domination_violation(g, vertices) is None


def bipartition(g: Graph) -> BipartiteLabeling | None:
    """2-color a connected graph; None when an odd cycle exists.

    A vertex's side is the parity of its depth in `bfs_tree` from vertex
    0, so vertex 0 goes to side_x and the labeling is deterministic; an
    edge inside one side closes an odd cycle.
    """
    if g.n == 0:
        return BipartiteLabeling((), ())
    if not g.is_connected():
        raise ValueError("bipartition requires a connected graph")
    order, parent = bfs_tree(g.adj, 0)
    side = [0] * g.n
    for v in order[1:]:
        side[v] = 1 - side[parent[v]]
    if any(side[u] == side[v] for u, v in g.edges()):
        return None
    return BipartiteLabeling(tuple(v for v in range(g.n) if not side[v]),
                             tuple(v for v in range(g.n) if side[v]))


def square_restricted(g: Graph, side: Sequence[int]) -> RestrictedSquare:
    """Graph on `side` joining members with a common neighbor in g.

    `side` must be an independent set (e.g. one side of a bipartition), so
    that distance between members is never 1 and an independent set of the
    result maps back to a packing of g inside `side`.
    """
    members = tuple(sorted(set(side)))
    index = {v: i for i, v in enumerate(members)}
    for v in members:
        for u in g.adj[v]:
            if u in index:
                raise ValueError(f"side is not independent: edge {v}-{u}")
    adj: list[set[int]] = [set() for _ in members]
    for w in range(g.n):
        hits = [index[u] for u in g.adj[w] if u in index]
        for i in range(len(hits)):
            for j in range(i + 1, len(hits)):
                adj[hits[i]].add(hits[j])
                adj[hits[j]].add(hits[i])
    return RestrictedSquare(Graph(len(members), adj), members)
