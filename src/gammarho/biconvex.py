"""Biconvex bipartite graphs: flank trimming, the chain decomposition into
complete bipartite blocks, and explicit packing / dominating certificates
whose sizes alone witness gamma <= 2*rho.

A biconvex graph comes with orderings of both sides under which every
neighborhood is an interval.  The pipeline is:

  trim_core       cut the nested left/right X-flanks, keep a core X-range
  cb_decompose    peel complete bipartite blocks K_1..K_k off the core,
                  sweeping left to right; leftovers J_i are one-sided and
                  have nested neighborhoods inside their block
  construct_packing / construct_dominating
                  read a packing of size >= k and a dominating set of size
                  <= 2k (+2 in the loose cases) straight off the blocks

Every certificate is re-validated against the full graph before it is
returned; a failed validation raises CertificateError rather than
returning a wrong witness, and no looser certificate stands in for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds
from .graphs import (
    CertificateError,
    Graph,
    distances_from,
    domination_violation,
    packing_violation,
)
from .reports import ScanRecord
from .solvers import DEFAULT_BUDGET, solve_pair


@dataclass(frozen=True)
class ConvexOrdering:
    """Orderings of the two sides; neighborhoods must be intervals in the
    opposite ordering."""

    x_order: tuple[int, ...]
    y_order: tuple[int, ...]

    def reversed_x(self) -> "ConvexOrdering":
        return ConvexOrdering(tuple(reversed(self.x_order)), self.y_order)


@dataclass(frozen=True)
class TrimmedCore:
    """Core X-range after cutting the nested flanks.  `ordering` is the
    working ordering: the X side may be the reverse of the input."""

    ordering: ConvexOrdering
    x_core: tuple[int, ...]
    x_reversed: bool

    @property
    def trimmed_left(self) -> tuple[int, ...]:
        xs = self.ordering.x_order
        return xs[: xs.index(self.x_core[0])]

    @property
    def trimmed_right(self) -> tuple[int, ...]:
        xs = self.ordering.x_order
        return xs[xs.index(self.x_core[-1]) + 1:]


@dataclass(frozen=True)
class Block:
    """Complete bipartite block; both sides stored in position order."""

    x_side: tuple[int, ...]
    y_side: tuple[int, ...]

    @property
    def lx(self) -> int:
        return self.x_side[0]

    @property
    def rx(self) -> int:
        return self.x_side[-1]

    @property
    def ly(self) -> int:
        return self.y_side[0]

    @property
    def ry(self) -> int:
        return self.y_side[-1]

    def vertices(self) -> frozenset[int]:
        return frozenset(self.x_side) | frozenset(self.y_side)


@dataclass(frozen=True)
class CBDecomposition:
    core: TrimmedCore
    blocks: tuple[Block, ...]
    j_sets: tuple[tuple[int, ...], ...]  # position-sorted, possibly empty
    j_sides: tuple[str, ...]  # "x", "y", or "" when the J set is empty

    @property
    def width(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class Certificate:
    kind: str  # "packing" or "dominating"
    vertices: tuple[int, ...]
    method: str

    @property
    def size(self) -> int:
        return len(self.vertices)


def validate_convex(g: Graph, ordering: ConvexOrdering) -> None:
    """Raise ValueError unless the orderings partition the vertices into a
    bipartition and every neighborhood is an interval on the other side."""
    xs, ys = ordering.x_order, ordering.y_order
    if sorted(xs + ys) != list(range(g.n)):
        raise ValueError("x_order and y_order must partition the vertex set")
    xset = set(xs)
    for u, v in g.edges():
        if (u in xset) == (v in xset):
            raise ValueError(f"edge {u}-{v} does not cross the claimed sides")
    xpos = {v: i for i, v in enumerate(xs)}
    ypos = {v: i for i, v in enumerate(ys)}
    for v in xs:
        ps = sorted(ypos[u] for u in g.neighbors(v))
        if ps and ps[-1] - ps[0] + 1 != len(ps):
            raise ValueError(f"neighborhood of {v} is not a y-interval")
    for v in ys:
        ps = sorted(xpos[u] for u in g.neighbors(v))
        if ps and ps[-1] - ps[0] + 1 != len(ps):
            raise ValueError(f"neighborhood of {v} is not an x-interval")


def trim_core(g: Graph, ordering: ConvexOrdering) -> TrimmedCore:
    """Locate the flank markers and cut the nested X-flanks.

    Every neighbor of the first y has an interval pinned at y-position 0,
    so those intervals are totally ordered by their right ends; the marker
    x_L is the one with the largest interval (smallest position on ties).
    Symmetrically x_R from the last y.  If the markers cross, the reverse
    X-ordering is the good one.
    """
    validate_convex(g, ordering)
    if not ordering.x_order or not ordering.y_order:
        raise ValueError("both sides must be nonempty")
    if not g.is_connected():
        raise ValueError("need a connected graph")

    work = ordering
    for attempt in range(2):
        xpos = {v: i for i, v in enumerate(work.x_order)}
        ypos = {v: i for i, v in enumerate(work.y_order)}
        y_first, y_last = work.y_order[0], work.y_order[-1]

        left_cands = g.neighbors(y_first)
        best_right = max(max(ypos[u] for u in g.neighbors(x)) for x in left_cands)
        x_l = min(
            (x for x in left_cands
             if max(ypos[u] for u in g.neighbors(x)) == best_right),
            key=xpos.get,
        )
        right_cands = g.neighbors(y_last)
        best_left = min(min(ypos[u] for u in g.neighbors(x)) for x in right_cands)
        x_r = max(
            (x for x in right_cands
             if min(ypos[u] for u in g.neighbors(x)) == best_left),
            key=xpos.get,
        )
        if xpos[x_l] <= xpos[x_r]:
            break
        if attempt == 1:
            raise CertificateError("flank markers still crossed after reversing")
        work = work.reversed_x()

    xs = work.x_order
    li, ri = xpos[x_l], xpos[x_r]
    # nested flanks, checked by consecutive inclusion
    for i in range(li):
        if not set(g.neighbors(xs[i])) <= set(g.neighbors(xs[i + 1])):
            raise CertificateError(f"left flank not nested at {xs[i]}")
    for i in range(len(xs) - 1, ri, -1):
        if not set(g.neighbors(xs[i])) <= set(g.neighbors(xs[i - 1])):
            raise CertificateError(f"right flank not nested at {xs[i]}")

    core = TrimmedCore(work, tuple(xs[li:ri + 1]), x_reversed=work is not ordering)
    sub, _ = g.induced(list(core.x_core) + list(work.y_order))
    if not sub.is_connected():
        raise CertificateError("trimmed core is not connected")
    return core


def cb_decompose(g: Graph, core: TrimmedCore) -> CBDecomposition:
    """Peel complete bipartite blocks off the trimmed core.

    Each round takes the first remaining x and first remaining y and forms
    the block from their remaining neighborhoods; vertices isolated by the
    removal form the one-sided leftover set J_i.  The structural claims
    (complete bipartite, consecutive-only adjacency, one-sided J with
    nested neighborhoods inside its own block) are all asserted.
    """
    work = core.ordering
    xpos = {v: i for i, v in enumerate(work.x_order)}
    ypos = {v: i for i, v in enumerate(work.y_order)}
    xset = set(core.x_core)
    yset = set(work.y_order)
    gp_vertices = xset | yset
    active = set(gp_vertices)

    blocks: list[Block] = []
    j_sets: list[tuple[int, ...]] = []
    j_sides: list[str] = []
    while active:
        ax = [v for v in active if v in xset]
        ay = [v for v in active if v in yset]
        if not ax or not ay:
            raise CertificateError("one-sided leftovers in block sweep")
        a = min(ax, key=xpos.get)
        b = min(ay, key=ypos.get)
        y_side = sorted((u for u in g.neighbors(a) if u in active), key=ypos.get)
        x_side = sorted((u for u in g.neighbors(b) if u in active), key=xpos.get)
        if not x_side or not y_side:
            raise CertificateError("block came out empty on one side")
        y_as_set = set(y_side)
        for x in x_side:
            if not y_as_set <= set(g.neighbors(x)):
                raise CertificateError(f"block is not complete bipartite at {x}")
        active -= y_as_set
        active -= set(x_side)
        isolated = [v for v in active
                    if not any(u in active for u in g.neighbors(v))]
        active -= set(isolated)

        if isolated:
            in_x = [v for v in isolated if v in xset]
            in_y = [v for v in isolated if v in yset]
            if in_x and in_y:
                raise CertificateError("leftover set spans both sides")
            side = "x" if in_x else "y"
            pos = xpos if in_x else ypos
            j_sets.append(tuple(sorted(isolated, key=pos.get)))
            j_sides.append(side)
        else:
            j_sets.append(())
            j_sides.append("")
        blocks.append(Block(tuple(x_side), tuple(y_side)))

    # blocks touch exactly their neighbors in the chain
    vmask = [sum(1 << v for v in blk.vertices()) for blk in blocks]
    nmask = []
    for blk in blocks:
        m = 0
        for v in blk.vertices():
            m |= g.closed_masks[v] & ~(1 << v)
        nmask.append(m)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            touches = bool(nmask[i] & vmask[j])
            if touches != (j == i + 1):
                raise CertificateError(
                    f"blocks {i + 1} and {j + 1} {'touch' if touches else 'do not touch'}"
                )

    # leftovers stay inside their own block and nest
    for i, js in enumerate(j_sets):
        if not js:
            continue
        blk_v = blocks[i].vertices()
        for v in js:
            for u in g.neighbors(v):
                if u in gp_vertices and u not in blk_v:
                    raise CertificateError(
                        f"leftover {v} of block {i + 1} reaches outside it"
                    )
        for s, t in zip(js, js[1:]):
            later = {u for u in g.neighbors(t) if u in gp_vertices}
            earlier = {u for u in g.neighbors(s) if u in gp_vertices}
            if not later <= earlier:
                raise CertificateError(
                    f"leftovers {s},{t} of block {i + 1} are not nested"
                )
        # the far corner of the block sees the whole leftover set
        anchor = blocks[i].ry if j_sides[i] == "x" else blocks[i].rx
        for v in js:
            if not g.has_edge(anchor, v):
                raise CertificateError(
                    f"corner {anchor} of block {i + 1} misses leftover {v}"
                )

    return CBDecomposition(core, tuple(blocks), tuple(j_sets), tuple(j_sides))


def _leftmost_picks(decomp: CBDecomposition, start: int, swap: bool) -> list[int]:
    """One pick per block from `start` (1-based): odd blocks contribute the
    leftmost x, even blocks the leftmost y; `swap` flips the parity."""
    picks = []
    for i in range(start, decomp.width + 1):
        blk = decomp.blocks[i - 1]
        take_x = (i % 2 == 1) != swap
        picks.append(blk.lx if take_x else blk.ly)
    return picks


def construct_packing(g: Graph, decomp: CBDecomposition) -> Certificate:
    """Packing certificate of size k (one alternating pick per block), or
    k+1 when either endpoint flank supplies a far vertex.

    When the trimmed right flank's last vertex xn has no neighbour in the
    last block K_k, there are two cases.  If N(xn) lies in the last
    leftover set J_k, the plain alternation plus xn packs ("tail-xn"): lx_k
    was the sweep's first active x when K_k formed, so a J_k vertex
    adjacent to lx_k would have joined K_k's Y side; hence lx_k and xn
    share no neighbour.  Any other pick is a y of K_k, which xn does not
    see, or lies in an earlier block, which no J_k vertex reaches.  If
    N(xn) lies in the Y side of K_{k-1}, block k-1 takes its leftmost y,
    block k its rightmost y, the earlier blocks alternate back from there
    (x, y, ...), and xn is added ("tail-xn-early").  Block k's Y side
    follows K_{k-1}'s in the Y order, so an x that sees ry_k and a y
    before K_k sees ly_k too: ly_k would clash wherever ry_k does, and an
    x of K_{k-1} reaching ly_k makes it clash with ly_{k-1}.  The rule was
    measured, not proved: it gives a packing on every input with at most
    5 vertices a side.  Any other reach of xn raises, as does a set that
    fails the final check."""
    core = decomp.core
    xo = core.ordering.x_order
    x1, xn = xo[0], xo[-1]
    k = decomp.width
    blocks = decomp.blocks
    dist_x1 = distances_from(g, x1)

    j1 = decomp.j_sets[0]
    verts: list[int] = []
    method = ""
    if j1 and max(dist_x1[a] for a in j1) >= 3:
        far = [a for a in j1 if dist_x1[a] >= 3]
        swap = decomp.j_sides[0] == "y"
        verts = _leftmost_picks(decomp, 2, swap) + [x1, far[0]]
        method = "flank-j1"
        expect = k + 1
    else:
        nxn = set(g.neighbors(xn))
        if nxn and not (nxn & blocks[-1].vertices()):
            if nxn <= set(decomp.j_sets[-1]):
                verts = _leftmost_picks(decomp, 1, False) + [xn]
                method = "tail-xn"
            elif k >= 2 and nxn <= set(blocks[-2].y_side):
                verts = [blk.ly if (k - i) % 2 else blk.lx
                         for i, blk in enumerate(blocks[:-2], 1)]
                verts += [blocks[-2].ly, blocks[-1].ry, xn]
                method = "tail-xn-early"
            else:
                raise CertificateError(
                    "tail vertex reaches past the last leftover set"
                )
            expect = k + 1
        elif k == 1 and dist_x1[xn] >= 3:
            verts = [x1, xn]
            method = "endpoints"
            expect = 2
        else:
            verts = _leftmost_picks(decomp, 1, False)
            method = "block-leftmost"
            expect = k

    out = tuple(sorted(set(verts)))
    if len(out) != expect:
        raise CertificateError(f"packing certificate collapsed to {len(out)} < {expect}")
    bad = packing_violation(g, out)
    if bad is not None:
        raise CertificateError(f"packing certificate clashes at {bad}")
    return Certificate("packing", out, method)


def construct_dominating(g: Graph, decomp: CBDecomposition) -> Certificate:
    """Dominating certificate of size <= 2k+2, and exactly 2k (or 2, k=1)
    in the tight cases the decomposition detects.

    With k = 1 and x1, xn within distance 2, {x_L, y*} dominates: x_L,
    the block's first x, has the largest interval in N(y_first), so every
    Y vertex with a core neighbour lies in N(x_L), and the core with the
    Y side is connected.  y*, a common neighbour of x1 and xn, has an
    X-interval holding both ends, so it sees every X vertex."""
    core = decomp.core
    xo, yo = core.ordering.x_order, core.ordering.y_order
    ypos = {v: i for i, v in enumerate(yo)}
    x1, xn = xo[0], xo[-1]
    k = decomp.width
    blocks = decomp.blocks
    dist_x1 = distances_from(g, x1)

    def first_nbr(v: int) -> int:
        return min(g.neighbors(v), key=ypos.get)

    def first_common(u: int, v: int) -> int:
        common = set(g.neighbors(u)) & set(g.neighbors(v))
        if not common:
            raise CertificateError(f"{u} and {v} share no neighbor")
        return min(common, key=ypos.get)

    def finish(cand: list[int], method: str) -> Certificate:
        out = tuple(sorted(set(cand)))
        bad = domination_violation(g, out)
        if bad is not None:
            raise CertificateError(f"dominating certificate misses {bad}")
        return Certificate("dominating", out, method)

    if k == 1:
        blk = blocks[0]
        if x1 == xn or dist_x1[xn] <= 2:
            ystar = first_nbr(x1) if x1 == xn else first_common(x1, xn)
            return finish([blk.lx, ystar], "k1-near")
        return finish([blk.rx, blk.ry, first_nbr(x1), first_nbr(xn)], "k1-far")

    j1 = decomp.j_sets[0]
    nxn_in_last = set(g.neighbors(xn)) & blocks[-1].vertices()
    j1_close = (not j1) or (
        decomp.j_sides[0] == "x" and max(dist_x1[a] for a in j1) <= 2
    )
    middle = [v for blk in blocks[1:-1] for v in (blk.rx, blk.ry)]

    if j1_close and nxn_in_last:
        if j1:
            ystar = first_common(x1, j1[-1]) if x1 != j1[-1] else first_nbr(x1)
        else:
            ystar = first_nbr(x1)
        yprime = min(nxn_in_last, key=ypos.get)
        return finish(middle + [blocks[0].rx, ystar, blocks[-1].rx, yprime],
                      "tight-2k")

    cand = middle + [
        blocks[0].rx, blocks[0].ry, blocks[-1].rx, blocks[-1].ry,
        first_nbr(x1), first_nbr(xn),
    ]
    return finish(cand, "loose-2k2")


# gamma <= 2*rho on the exact numbers, then on the certificate sizes, then
# the bracket pack size <= rho, gamma <= dom size
_RECORDS = (
    ("gamma-le-2rho", "theorem", bounds.GAMMA_LE_2RHO),
    ("certified-gamma-le-2rho", "theorem", bounds.CERTIFIED_GAMMA_LE_2RHO),
    ("certificates-bracket", "theorem", bounds.CERTIFICATES_BRACKET),
)


def certify_biconvex(g: Graph, ordering: ConvexOrdering | None,
                     graph_id: str = "biconvex",
                     budget: int = DEFAULT_BUDGET
                     ) -> tuple[dict, list[ScanRecord]]:
    """The block decomposition's width and its packing and dominating
    certificates, then gamma <= 2*rho on the exact numbers and on the
    certificate sizes (which holds independently of the solvers), and the
    bracket pack size <= rho, gamma <= dom size.  Every record carries the
    certificates' detail; the lone vertex has no bracket, and its exact
    record carries none."""
    if ordering is None:
        raise ValueError(
            "biconvex input needs #xorder/#yorder sidecars or an "
            "edge list with xorder/yorder lines"
        )
    if g.n == 1:
        # trim_core needs two nonempty sides; the lone vertex is both
        # certificates
        validate_convex(g, ordering)
        single = {"vertices": [0], "method": "singleton"}
        records = bounds.bound_records(_RECORDS[:2], graph_id, "biconvex", 1,
                                       1, 1, pack_size=1, dom_size=1)
        records[1].details = {"pack_size": 1, "dom_size": 1,
                              "pack_method": "singleton",
                              "dom_method": "singleton", "width": 0}
        return dict(width=0, packing=single, dominating=dict(single)), records
    decomp = cb_decompose(g, trim_core(g, ordering))
    pack = construct_packing(g, decomp)
    dom = construct_dominating(g, decomp)
    core = decomp.core
    gamma, rho = solve_pair(g, budget)
    detail = {
        "width": decomp.width,
        "pack_size": pack.size, "pack_method": pack.method,
        "dom_size": dom.size, "dom_method": dom.method,
        "x_reversed": core.x_reversed,
        "trimmed": [len(core.trimmed_left), len(core.trimmed_right)],
    }
    certs = dict(
        width=decomp.width,
        packing={"vertices": list(pack.vertices), "method": pack.method},
        dominating={"vertices": list(dom.vertices), "method": dom.method},
    )
    records = bounds.bound_records(_RECORDS, graph_id, "biconvex", g.n,
                                   gamma.value, rho.value,
                                   pack_size=pack.size, dom_size=dom.size)
    for r in records:
        r.details = detail
    return certs, records
