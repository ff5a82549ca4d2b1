"""Graph generators: named small graphs, seeded random families (trees,
connected graphs, maximal outerplanar, bicubic, biconvex), the tight
biconvex family with gamma = 2*rho, and exhaustive enumeration of small
connected bicubic graphs up to isomorphism.

Randomness always flows through random.Random(seed); the same seed gives
the same graph on any platform.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from itertools import combinations

from .biconvex import ConvexOrdering, cb_decompose, trim_core
from .graphs import Graph


# ---------------------------------------------------------------- named ----

def gen_path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def gen_complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def gen_star(n: int) -> Graph:
    return gen_complete_bipartite(1, n - 1)


def generalized_petersen(n: int, k: int) -> Graph:
    """Outer n-cycle 0..n-1, inner vertices n..2n-1 joined by spokes, inner
    edges i to i+k (mod n)."""
    if n < 3 or not 1 <= k < n:
        raise ValueError("need n >= 3 and 1 <= k < n")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return Graph.from_edges(2 * n, edges)


def petersen() -> Graph:
    return generalized_petersen(5, 2)


def heawood() -> Graph:
    """14-cycle plus the chords of the LCF code [5, -5]^7."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    for i in range(0, 14, 2):
        edges.append((i, (i + 5) % 14))
    return Graph.from_edges(14, edges)


def gen_rook(n: int) -> Graph:
    """K_n box K_n: cells of an n x n board, adjacent in the same row or
    column.  gamma = n while rho = 1."""
    edges = []
    for r in range(n):
        for c1, c2 in combinations(range(n), 2):
            edges.append((r * n + c1, r * n + c2))
            edges.append((c1 * n + r, c2 * n + r))
    return Graph.from_edges(n * n, edges)


def gen_sun() -> Graph:
    """Hexagon with the long chords 1-3, 3-5, 5-1: the smallest maximal
    outerplanar graph with gamma = 2*rho."""
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(1, 3), (3, 5), (5, 1)]
    return Graph.from_edges(6, edges)


# --------------------------------------------------------------- random ----

def gen_random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def gen_random_connected(n: int, seed: int) -> Graph:
    """G(n, p) with p drawn from [0.15, 0.6], resampled until connected."""
    rng = random.Random(seed)
    for _ in range(10000):
        p = rng.uniform(0.15, 0.6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g
    raise RuntimeError("could not draw a connected graph")


def gen_random_mop(n: int, seed: int) -> Graph:
    """Uniformly random triangulation of a convex n-gon (equivalently a
    maximal outerplanar graph with boundary 0..n-1).

    The apex for the base edge of an m-gon splits it into sub-polygons
    counted by Catalan numbers, so drawing the apex with those exact
    integer weights gives the uniform distribution.  Sub-polygons are
    filled from an explicit stack, left before right, so any n works and
    the random draws come in the same order as a recursive fill.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    catalan = [1]
    for i in range(n - 2):
        catalan.append(catalan[-1] * 2 * (2 * i + 1) // (i + 2))
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    stack = [(0, n - 1)]  # sub-polygons seg[lo..hi] of the boundary
    while stack:
        lo, hi = stack.pop()
        m = hi - lo + 1
        if m < 3:
            continue
        # Segner: the apex weights C(k-1) C(m-k-2), k = 1..m-2, sum to C(m-2)
        r = rng.randrange(catalan[m - 2])
        k = 1
        while r >= (w := catalan[k - 1] * catalan[m - k - 2]):
            r -= w
            k += 1
        edges.add((lo, lo + k))
        edges.add((lo + k, hi))
        stack.append((lo + k, hi))
        stack.append((lo, lo + k))
    return Graph.from_edges(n, edges)


def gen_random_bicubic(n: int, seed: int) -> Graph:
    """Connected cubic bipartite graph on n vertices (sides 0..n/2-1 and
    n/2..n-1) via the configuration model, rejecting multi-edges and
    disconnected draws."""
    if n % 2 or n < 6:
        raise ValueError("need even n >= 6")
    half = n // 2
    rng = random.Random(seed)
    x_stubs = [v for v in range(half) for _ in range(3)]
    for _ in range(5000):
        y_stubs = [half + v for v in range(half) for _ in range(3)]
        rng.shuffle(y_stubs)
        pairs = set(zip(x_stubs, y_stubs))
        if len(pairs) < 3 * half:
            continue
        g = Graph.from_edges(n, pairs)
        if g.is_connected():
            return g
    raise RuntimeError("configuration model kept producing bad draws")


def gen_random_biconvex(nx: int, ny: int, seed: int) -> tuple[Graph, ConvexOrdering]:
    """Connected biconvex graph with X = 0..nx-1, Y = nx..nx+ny-1 and the
    natural orders.

    Neighborhoods are staircase intervals over X: both endpoints grow
    monotonically, consecutive intervals overlap, the first is pinned at 0
    and the last reaches nx-1.  That shape makes both convexity conditions
    and the flank-nesting structure automatic, so the block decomposition
    is always available; the loop re-checks that, and a failure there is a
    bug that raises instead of drawing again.
    """
    if nx < 1 or ny < 1:
        raise ValueError("need nx, ny >= 1")
    rng = random.Random(seed)
    for _ in range(200):
        lo, hi = 0, rng.randint(0, min(nx - 1, 3))
        intervals = [(lo, hi)]
        for _ in range(ny - 1):
            lo = rng.randint(lo, hi)
            base = max(hi, lo)
            hi = rng.randint(base, min(nx - 1, base + 3))
            intervals.append((lo, hi))
        lo, _ = intervals[-1]
        intervals[-1] = (lo, nx - 1)
        edges = [
            (x, nx + j)
            for j, (a, b) in enumerate(intervals)
            for x in range(a, b + 1)
        ]
        g = Graph.from_edges(nx + ny, edges)
        ordering = ConvexOrdering(tuple(range(nx)), tuple(range(nx, nx + ny)))
        if not g.is_connected():
            continue
        cb_decompose(g, trim_core(g, ordering))
        return g, ordering
    raise RuntimeError("staircase sampler failed to produce a usable graph")


def gen_tight_family(k: int) -> tuple[Graph, ConvexOrdering]:
    """The extremal biconvex family with gamma = 2k and rho = k: k disjoint
    copies of K_{2,2}.

    One vertex of a K_{2,2} covers only three of its four vertices, so each
    copy needs two dominators; each copy has diameter 2, so it contributes
    at most one packing vertex.  Joining consecutive copies with an edge
    would break this: the connector endpoint picks up an outside dominator
    and gamma drops below 2k already at k = 2 (in fact no connected graph
    on 4k vertices can have gamma = 2k and rho = k at once, since the
    gamma = n/2 graphs are C_4 and the coronas, whose packing numbers are
    n/2 as well).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    # copy i joins x vertices 2i, 2i + 1 to y vertices 2k + 2i, 2k + 2i + 1
    edges = [(a, 2 * k + b) for i in range(0, 2 * k, 2)
             for a in (i, i + 1) for b in (i, i + 1)]
    g = Graph.from_edges(4 * k, edges)
    ordering = ConvexOrdering(tuple(range(2 * k)), tuple(range(2 * k, 4 * k)))
    return g, ordering


# ----------------------------------------------------- exhaustive lists ----

def _bicubic_canonical(rows: tuple[int, ...], m: int) -> tuple:
    """Canonical form of a bicubic bipartite adjacency matrix (rows as
    bitmasks) under row permutations, column permutations, and swapping
    the sides: the least column-major reading of any relabelling, as m
    column tuples of m bits.

    For a fixed column order, the least reading sorts the rows by their
    bits in that order, so the form is the least reading over the column
    orders of the matrix and of its transpose.  The search picks columns
    one at a time over an ordered partition of the rows, whose cells are
    the rows that agree on every column picked so far.  Picking column c
    reads each cell's rows without c (zeros), then its rows with c (ones),
    and splits the cell the same way.  A reading is an m-bit int whose
    first row is its top bit, so ints compare as the column tuples do.
    Only the columns with the least reading at a depth can start the least
    form below it, so only they are branched on, once per distinct
    column; a branch whose prefix exceeds the best form found is dropped,
    and once every cell is one row the rest of the form is the remaining
    readings in ascending order.  That is McKay's individualisation and
    refinement, with the least leaf as the canonical form.
    """
    cols = tuple(sum(((r >> j) & 1) << i for i, r in enumerate(rows))
                 for j in range(m))
    best: list[int] = []
    for vectors in (cols, tuple(rows)):
        _least_reading(vectors, m, best)
    return tuple(tuple((r >> (m - 1 - i)) & 1 for i in range(m)) for r in best)


def _least_reading(vectors: Sequence[int], m: int, best: list[int],
                   first: bool = False) -> bool:
    """Lower `best` (a finished form, or empty) to the least column-major
    reading of the columns `vectors` (row bitmasks) over their column
    orders, and return whether some reading lies below it; see
    _bicubic_canonical.

    With `first`, return True at the first prefix that reads below `best`,
    which is left as it was: no leaf under that prefix can read at or above
    `best`, since refining the cells below it reorders rows only inside
    cells, where every column read so far is constant.  Seeded with a
    matrix's own reading, this is enumerate_bicubic's test that no
    relabelling reads below the matrix.
    """
    prefix: list[int] = []

    def descend(cells: list[int], left: list[int]) -> bool:
        readings = []
        for c in left:
            reading = 0
            for cell in cells:
                ones = (cell & c).bit_count()
                reading = reading << cell.bit_count() | ((1 << ones) - 1)
            readings.append(reading)
        if not left or len(cells) == m:  # no column can split a cell
            form = prefix + sorted(readings)
            if best and form >= best:
                return False
            if not first:
                best[:] = form
            return True
        low = min(readings)
        prefix.append(low)
        head = best[:len(prefix)]
        lowered = first and prefix < head
        if not lowered and (not best or prefix <= head):
            tried = set()
            for c, reading in zip(left, readings):
                if reading != low or c in tried:
                    continue
                tried.add(c)
                split = []
                for cell in cells:
                    for part in (cell & ~c, cell & c):
                        if part:
                            split.append(part)
                rest = left.copy()
                rest.remove(c)
                if descend(split, rest):
                    lowered = True
                    if first:
                        break
        prefix.pop()
        return lowered

    return descend([(1 << m) - 1], list(vectors))


def _bicubic_candidates(m: int) -> Iterator[tuple[int, ...]]:
    """Every m x m 0/1 matrix with row and column sums 3 whose rows and
    columns are both in ascending order, as its rows: m-bit ints whose top
    bit is column 0, so a row's bit string reads as its int value.  A
    column reads top to bottom, row 0 first.

    Rows are picked in ascending order with column sums at most 3 and room
    left to reach 3.  Bit p of a tie mask stands for the column pair at
    bits p+1 and p, still equal on the rows so far; a row reading 1 then 0
    on a tied pair would put that pair out of order, so it is skipped.
    ge1, ge2 and ge3 mask the columns whose sum is at least 1, 2 and 3.
    """
    full = (1 << m) - 1
    row_types = sorted(sum(1 << c for c in combo)
                       for combo in combinations(range(m), 3))
    chosen: list[int] = []

    def extend(start: int, ties: int, ge1: int, ge2: int,
               ge3: int) -> Iterator[tuple[int, ...]]:
        left = m - len(chosen) - 1  # rows still to pick after this one
        for idx in range(start, len(row_types)):
            r = row_types[idx]
            if r & ge3 or (r >> 1) & ~r & ties:
                continue
            sums = (ge1 | r, ge2 | ge1 & r, ge3 | ge2 & r)
            if left < 3 and sums[2 - left] != full:  # a sum below 3 - left
                continue
            chosen.append(r)
            if left:
                yield from extend(idx, ties & ~(r ^ r >> 1), *sums)
            else:
                yield tuple(chosen)
            chosen.pop()

    yield from extend(0, full >> 1, 0, 0, 0)


def _orderly_form(rows: tuple[int, ...], m: int) -> list[int] | None:
    """The column readings of a candidate of _bicubic_candidates if no
    relabelling of it reads below them, else None: then they are the
    candidate's _bicubic_canonical form, as m-bit ints."""
    form = [0] * m
    for i, r in enumerate(rows):
        while r:  # three columns per row
            top = r.bit_length() - 1
            form[m - 1 - top] |= 1 << (m - 1 - i)
            r ^= 1 << top
    if _least_reading(form, m, form, True) or _least_reading(rows, m, form, True):
        return None
    return form


def enumerate_bicubic(n: int) -> list[Graph]:
    """Every connected cubic bipartite graph on n vertices, one per
    isomorphism class, in a deterministic order.  Supported for
    n in {6, 8, ..., 16}; larger orders come from external corpora.

    An orderly generator (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998).  The candidates are the doubly lexical
    biadjacency matrices with rows and columns both in ascending order
    (_bicubic_candidates), and a
    candidate is kept only if no relabelling, by row and column
    permutations with or without swapping the sides, reads strictly below
    it column-major.  _least_reading's refinement search, seeded with the
    candidate's own reading, stops at the first prefix that reads lower,
    so most candidates are rejected after a few columns.

    Each class's canonical form, the least column-major reading of any
    relabelling (_bicubic_canonical), is one of the candidates: for its
    column order the least reading has the rows in ascending order, and a
    column pair out of ascending order could be swapped to read lower.  No
    other candidate of the class passes, so each class is kept exactly
    once, as its canonical form, which also defines the output order and
    labels.  Connectivity is tested on the kept candidates only.
    """
    if n not in (6, 8, 10, 12, 14, 16):
        raise ValueError("exhaustive enumeration supports n in {6, 8, ..., 16}")
    m = n // 2
    kept = []
    for rows in _bicubic_candidates(m):
        form = _orderly_form(rows, m)
        if form is not None:
            g = Graph.from_edges(n, [(i, m + j) for j, col in enumerate(form)
                                     for i in range(m) if (col >> (m - 1 - i)) & 1])
            if g.is_connected():
                kept.append((form, g))
    kept.sort(key=lambda pair: pair[0])
    return [g for _, g in kept]
