"""Pins the gamma and rho searches node for node.

The digests below cover value, witness and node count of every answer,
and every field of every BudgetExceeded, over a seeded corpus, so a change
to the branching order, a tie-break or a bound shows up here even when
the values stay right.  Run this file as a script
(`PYTHONPATH=src python tests/test_search_pin.py`) to print the outcome of
every row, the digests of the code in the working tree, and each
quantity's total nodes and seconds over the corpus: nodes first, since
they repeat exactly on any machine, then seconds.

The gamma digest was last retaken when gamma's search came to prune
regular components with the fractional bound (a third dual solution of
the covering LP) at pop.  The branching order is unchanged and the bound
is admissible, so, as for rho below, the former tables pin that every
answer keeps its value and witness in no more nodes, and that every
former run-out now answers inside its bounds or runs out with the same
lower end and an upper end no larger.  bicubic-64 at budget 40,000 went
from a run-out with bounds [16, 18] to the answer 17 in 8,230 nodes.

The rho digest, first taken from the recursive search that the
explicit-stack one replaced, was retaken when rho's search came to prune
with the star cover (closed neighbourhoods) ahead of the chain cover.  The
branching order is unchanged and both covers are admissible, so the
search visits a subset of the former nodes, in the same order: the former
tables below pin that every answer keeps its value and witness in no more
nodes, and that every former run-out now answers inside its bounds or
runs out with bounds inside them.  bicubic-64 at budget 5000 went from a
run-out with bounds [15, 21] to the answer 15 in 2,361 nodes.
"""

import hashlib
import json
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from gammarho import solvers
from gammarho.graphs import Graph
from gammarho.generators import (
    gen_complete,
    gen_cycle,
    gen_path,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_rook,
    generalized_petersen,
    petersen,
)
from test_solvers import mixed_graphs

PIN_BUDGET = 40_000
RHO_DIGEST = "e4d94317fe50f0df6f44e5e340f8369a76262696ba8acfcb24cfb2f931304e5f"
GAMMA_DIGEST = "9bcd94cf1db6fbf788f29ee05c8f94669b54e990ddaac329b21489f648b68754"

# The former gamma search's answers, which pruned with the counting and
# packing bounds alone: (graph, budget, gamma, witness, nodes) ...
FORMER_GAMMA_SOLVED = [
    ("bicubic-16", 40000, 5, (0, 2, 6, 9, 12), 41),
    ("bicubic-24", 40000, 7, (0, 2, 6, 7, 13, 15, 19), 79),
    ("bicubic-32", 40000, 9, (0, 6, 8, 10, 12, 18, 20, 21, 24), 560),
    ("bicubic-40", 40000, 11, (0, 1, 4, 7, 13, 14, 26, 29, 32, 33, 39), 465),
    ("bicubic-48", 40000, 13, (0, 3, 9, 10, 17, 20, 21, 26, 27, 29, 30, 40,
     42), 716),
    ("bicubic-56", 40000, 15, (0, 1, 4, 7, 10, 16, 17, 21, 28, 41, 44, 48, 49,
     53, 55), 1996),
    ("biconvex-6x6", 40000, 4, (1, 3, 6, 11), 15),
    ("biconvex-9x7", 40000, 3, (5, 9, 11), 12),
    ("biconvex-12x12", 40000, 5, (0, 6, 11, 14, 16), 20),
    ("biconvex-18x14", 40000, 7, (0, 1, 7, 16, 17, 21, 26), 41),
    ("biconvex-24x24", 40000, 12, (1, 4, 9, 13, 23, 24, 28, 29, 31, 33, 35,
     36), 270),
    ("connected-10", 40000, 2, (0, 1), 6),
    ("connected-16", 40000, 3, (4, 7, 9), 34),
    ("connected-22", 40000, 3, (1, 2, 11), 74),
    ("connected-28", 40000, 3, (4, 10, 14), 87),
    ("connected-34", 40000, 3, (1, 2, 22), 162),
    ("connected-40", 40000, 3, (11, 28, 31), 238),
    ("mop-6", 40000, 2, (0, 3), 7),
    ("mop-10", 40000, 2, (0, 5), 7),
    ("mop-14", 40000, 3, (1, 5, 13), 11),
    ("mop-18", 40000, 4, (0, 4, 7, 13), 14),
    ("mop-22", 40000, 6, (0, 6, 7, 13, 14, 19), 22),
    ("mop-26", 40000, 6, (0, 3, 5, 13, 17, 21), 66),
    ("mop-30", 40000, 7, (0, 9, 13, 14, 22, 26, 27), 22),
    ("cycle-30", 40000, 10, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27), 31),
    ("cycle-31", 40000, 11, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 28), 34),
    ("cycle-32", 40000, 11, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 29), 34),
    ("cycle-60", 40000, 20, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57), 61),
    ("cycle-100", 40000, 34, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87,
     90, 93, 96, 97), 103),
    ("cycle-150", 40000, 50, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87,
     90, 93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132,
     135, 138, 141, 144, 147), 151),
    ("cycle-300", 40000, 100, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87,
     90, 93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132,
     135, 138, 141, 144, 147, 150, 153, 156, 159, 162, 165, 168, 171, 174,
     177, 180, 183, 186, 189, 192, 195, 198, 201, 204, 207, 210, 213, 216,
     219, 222, 225, 228, 231, 234, 237, 240, 243, 246, 249, 252, 255, 258,
     261, 264, 267, 270, 273, 276, 279, 282, 285, 288, 291, 294, 297),
     301),
    ("petersen", 40000, 3, (0, 2, 6), 13),
    ("rook-5", 40000, 5, (0, 4, 6, 12, 18), 1863),
    ("union", 40000, 16, (0, 2, 6, 10, 13, 15, 18, 21, 24, 27, 30, 33, 36, 39,
     42, 43), 47),
    ("bicubic-32", 5000, 9, (0, 6, 8, 10, 12, 18, 20, 21, 24), 560),
    ("biconvex-18x14", 50, 7, (0, 1, 7, 16, 17, 21, 26), 41),
    ("biconvex-18x14", 5000, 7, (0, 1, 7, 16, 17, 21, 26), 41),
    ("connected-40", 5000, 3, (11, 28, 31), 238),
    ("mop-30", 50, 7, (0, 9, 13, 14, 22, 26, 27), 22),
    ("mop-30", 5000, 7, (0, 9, 13, 14, 22, 26, 27), 22),
    ("cycle-100", 5000, 34, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87,
     90, 93, 96, 97), 103),
    ("cycle-300", 5000, 100, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87,
     90, 93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132,
     135, 138, 141, 144, 147, 150, 153, 156, 159, 162, 165, 168, 171, 174,
     177, 180, 183, 186, 189, 192, 195, 198, 201, 204, 207, 210, 213, 216,
     219, 222, 225, 228, 231, 234, 237, 240, 243, 246, 249, 252, 255, 258,
     261, 264, 267, 270, 273, 276, 279, 282, 285, 288, 291, 294, 297),
     301),
    ("rook-5", 5000, 5, (0, 4, 6, 12, 18), 1863),
    ("union", 50, 16, (0, 2, 6, 10, 13, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42,
     43), 47),
    ("union", 5000, 16, (0, 2, 6, 10, 13, 15, 18, 21, 24, 27, 30, 33, 36, 39,
     42, 43), 47),
]
# ... and the bounds of its exhausted searches: (graph, budget, lower, upper)
FORMER_GAMMA_EXHAUSTED = [
    ("bicubic-64", 40000, 16, 18), ("bicubic-32", 1, 8, 32),
    ("bicubic-32", 50, 8, 12), ("bicubic-64", 1, 16, 64),
    ("bicubic-64", 50, 16, 21), ("bicubic-64", 5000, 16, 18),
    ("biconvex-18x14", 1, 5, 32), ("connected-40", 1, 2, 40),
    ("connected-40", 50, 2, 4), ("mop-30", 1, 6, 30),
    ("cycle-100", 1, 34, 100), ("cycle-100", 50, 34, 34),
    ("cycle-300", 1, 100, 300), ("cycle-300", 50, 100, 300),
    ("rook-5", 1, 3, 25), ("rook-5", 50, 3, 5), ("union", 1, 3, 46),
]

# The former rho search's answers, which pruned with the chain cover alone:
# (graph, budget, rho, witness, nodes) ...
FORMER_RHO_SOLVED = [
    ("bicubic-16", 40000, 3, (6, 9, 12), 23),
    ("bicubic-24", 40000, 5, (1, 6, 7, 13, 15), 67),
    ("bicubic-32", 40000, 7, (0, 6, 10, 13, 18, 21, 24), 177),
    ("bicubic-40", 40000, 9, (0, 5, 8, 15, 26, 27, 35, 36, 39), 365),
    ("bicubic-48", 40000, 11, (0, 9, 10, 17, 20, 26, 27, 29, 30, 40, 42),
     829),
    ("bicubic-56", 40000, 13, (1, 6, 9, 13, 14, 19, 22, 32, 36, 40, 43, 45,
     47), 2261),
    ("bicubic-64", 40000, 15, (0, 2, 5, 10, 14, 15, 24, 28, 35, 41, 45, 48,
     49, 53, 60), 5209),
    ("biconvex-6x6", 40000, 4, (0, 3, 5, 8), 29),
    ("biconvex-9x7", 40000, 3, (0, 6, 10), 21),
    ("biconvex-12x12", 40000, 5, (4, 8, 12, 15, 18), 53),
    ("biconvex-18x14", 40000, 7, (1, 4, 9, 16, 18, 22, 30), 89),
    ("biconvex-24x24", 40000, 11, (0, 6, 8, 12, 18, 21, 25, 27, 30, 34,
     37), 393),
    ("connected-10", 40000, 2, (3, 6), 13),
    ("connected-16", 40000, 3, (2, 12, 15), 33),
    ("connected-22", 40000, 1, (0,), 3),
    ("connected-28", 40000, 2, (2, 24), 57),
    ("connected-34", 40000, 1, (0,), 3),
    ("connected-40", 40000, 2, (16, 26), 75),
    ("mop-6", 40000, 2, (2, 5), 13),
    ("mop-10", 40000, 2, (1, 4), 9),
    ("mop-14", 40000, 3, (3, 9, 12), 21),
    ("mop-18", 40000, 4, (3, 7, 14, 17), 39),
    ("mop-22", 40000, 6, (2, 5, 8, 11, 15, 20), 41),
    ("mop-26", 40000, 6, (2, 6, 12, 17, 22, 25), 59),
    ("mop-30", 40000, 7, (5, 8, 12, 15, 18, 25, 28), 79),
    ("cycle-30", 40000, 10, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27), 105),
    ("cycle-31", 40000, 10, (0, 4, 7, 10, 13, 16, 19, 22, 25, 28), 101),
    ("cycle-32", 40000, 10, (0, 5, 8, 11, 14, 17, 20, 23, 26, 29), 107),
    ("cycle-60", 40000, 20, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33,
     36, 39, 42, 45, 48, 51, 54, 57), 449),
    ("cycle-100", 40000, 33, (0, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34,
     37, 40, 43, 46, 49, 52, 55, 58, 61, 64, 67, 70, 73, 76, 79, 82, 85,
     88, 91, 94, 97), 1221),
    ("cycle-150", 40000, 50, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33,
     36, 39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84,
     87, 90, 93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129,
     132, 135, 138, 141, 144, 147), 2921),
    ("cycle-300", 40000, 100, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33,
     36, 39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84,
     87, 90, 93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129,
     132, 135, 138, 141, 144, 147, 150, 153, 156, 159, 162, 165, 168, 171,
     174, 177, 180, 183, 186, 189, 192, 195, 198, 201, 204, 207, 210, 213,
     216, 219, 222, 225, 228, 231, 234, 237, 240, 243, 246, 249, 252, 255,
     258, 261, 264, 267, 270, 273, 276, 279, 282, 285, 288, 291, 294, 297),
     11841),
    ("petersen", 40000, 1, (0,), 3),
    ("rook-5", 40000, 1, (0,), 3),
    ("union", 40000, 13, (0, 10, 14, 15, 19, 22, 25, 28, 31, 34, 37, 40,
     43), 104),
    ("bicubic-32", 5000, 7, (0, 6, 10, 13, 18, 21, 24), 177),
    ("biconvex-18x14", 5000, 7, (1, 4, 9, 16, 18, 22, 30), 89),
    ("connected-40", 5000, 2, (16, 26), 75),
    ("mop-30", 5000, 7, (5, 8, 12, 15, 18, 25, 28), 79),
    ("cycle-100", 5000, 33, (0, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34,
     37, 40, 43, 46, 49, 52, 55, 58, 61, 64, 67, 70, 73, 76, 79, 82, 85,
     88, 91, 94, 97), 1221),
    ("rook-5", 50, 1, (0,), 3),
    ("rook-5", 5000, 1, (0,), 3),
    ("union", 5000, 13, (0, 10, 14, 15, 19, 22, 25, 28, 31, 34, 37, 40,
     43), 104),
]
# ... and the bounds of its exhausted searches: (graph, budget, lower, upper)
FORMER_RHO_EXHAUSTED = [
    ("bicubic-32", 1, 0, 10), ("bicubic-32", 50, 7, 10),
    ("bicubic-64", 1, 0, 21), ("bicubic-64", 50, 13, 21),
    ("bicubic-64", 5000, 15, 21), ("biconvex-18x14", 1, 0, 7),
    ("biconvex-18x14", 50, 6, 7), ("connected-40", 1, 0, 2),
    ("connected-40", 50, 1, 2), ("mop-30", 1, 0, 7), ("mop-30", 50, 6, 7),
    ("cycle-100", 1, 0, 34), ("cycle-100", 50, 22, 34),
    ("cycle-300", 1, 0, 100), ("cycle-300", 50, 0, 100),
    ("cycle-300", 5000, 86, 100), ("rook-5", 1, 0, 1), ("union", 1, 0, 37),
    ("union", 50, 12, 14),
]


def _disjoint_union(*parts):
    edges, base = [], 0
    for g in parts:
        edges += [(base + u, base + v) for u, v in g.edges()]
        base += g.n
    return Graph.from_edges(base, edges)


def _corpus():
    out = [(f"bicubic-{n}", gen_random_bicubic(n, 7 + n)) for n in range(16, 65, 8)]
    out += [(f"biconvex-{nx}x{ny}", gen_random_biconvex(nx, ny, nx * ny)[0])
            for nx, ny in ((6, 6), (9, 7), (12, 12), (18, 14), (24, 24))]
    out += [(f"connected-{n}", gen_random_connected(n, 300 + n))
            for n in range(10, 41, 6)]
    out += [(f"mop-{n}", gen_random_mop(n, 50 + n)) for n in range(6, 31, 4)]
    out += [(f"cycle-{n}", gen_cycle(n)) for n in (30, 31, 32, 60, 100, 150, 300)]
    out += [("petersen", petersen()), ("rook-5", gen_rook(5))]
    # a tree between two searched components: budget bounds for the whole
    out.append(("union", _disjoint_union(petersen(), gen_path(5), gen_cycle(31))))
    return out


def _outcome(solve, g, budget):
    try:
        s = solve(g, budget)
    except solvers.BudgetExceeded as exc:
        return ["budget", exc.quantity, exc.lower, exc.upper,
                list(exc.witness), exc.nodes]
    return [s.value, list(s.witness), s.nodes]


def search_records(seconds=None):
    """(graph, quantity, budget, outcome) rows over the pinned corpus; the
    time of each quantity's solves is added to `seconds[quantity]` when a
    dict is given."""
    corpus = _corpus()
    small_budget = ("bicubic-32", "bicubic-64", "biconvex-18x14",
                    "connected-40", "mop-30", "cycle-100", "cycle-300",
                    "rook-5", "union")
    runs = [(name, g, PIN_BUDGET) for name, g in corpus]
    runs += [(name, g, budget) for name, g in corpus if name in small_budget
             for budget in (1, 50, 5000)]
    rows = []
    for name, g, budget in runs:
        for q, solve in (("gamma", solvers.domination_number),
                         ("rho", solvers.packing_number)):
            start = time.perf_counter()
            rows.append([name, q, budget, _outcome(solve, g, budget)])
            if seconds is not None:
                seconds[q] = seconds.get(q, 0.0) + time.perf_counter() - start
    return rows


def search_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _quantity_digest(rows, quantity) -> str:
    return search_digest([row for row in rows if row[1] == quantity])


@pytest.fixture(scope="module")
def records():
    return search_records()


def test_search_matches_pinned_digest(records):
    assert _quantity_digest(records, "rho") == RHO_DIGEST
    assert _quantity_digest(records, "gamma") == GAMMA_DIGEST


def test_gamma_keeps_the_former_values_in_no_more_nodes(records):
    outcomes = {(row[0], row[2]): row[3]
                for row in records if row[1] == "gamma"}
    assert len(outcomes) == (len(FORMER_GAMMA_SOLVED)
                             + len(FORMER_GAMMA_EXHAUSTED))
    for name, budget, value, witness, nodes in FORMER_GAMMA_SOLVED:
        now = outcomes[name, budget]
        assert now[:2] == [value, list(witness)] and now[2] <= nodes, (
            name, budget, now)
    for name, budget, lower, upper in FORMER_GAMMA_EXHAUSTED:
        now = outcomes[name, budget]
        if now[0] == "budget":  # it got at least as far, from the same root
            assert lower == now[2] and now[3] <= upper, (name, budget, now)
        else:
            assert lower <= now[0] <= upper, (name, budget, now)


def test_rho_keeps_the_former_witnesses_in_no_more_nodes(records):
    outcomes = {(row[0], row[2]): row[3] for row in records if row[1] == "rho"}
    assert len(outcomes) == len(FORMER_RHO_SOLVED) + len(FORMER_RHO_EXHAUSTED)
    for name, budget, value, witness, nodes in FORMER_RHO_SOLVED:
        now = outcomes[name, budget]
        assert now[:2] == [value, list(witness)] and now[2] <= nodes, (
            name, budget, now)
    for name, budget, lower, upper in FORMER_RHO_EXHAUSTED:
        now = outcomes[name, budget]
        if now[0] == "budget":  # it got at least as far, with a cover no larger
            assert lower <= now[2] and now[3] <= upper, (name, budget, now)
        else:
            assert lower <= now[0] <= upper, (name, budget, now)


# The per-node helpers against inline copies of the loops they replaced.


@st.composite
def graph_and_mask(draw):
    # as in the gamma loop's property below: hypothesis's own edge lists
    # shrink towards near-forests, a seeded draw gives average degree 2 to 4
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 40)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(n, 2 * n))]
    g = Graph.from_edges(n, [(u, v) for u, v in edges if u != v])
    return g, draw(st.integers(0, (1 << n) - 1))


def _old_packing_bound(masks, undominated):
    count = 0
    taken = 0
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if taken & masks[v] == 0:
            taken |= masks[v]
            count += 1
    return count


def _old_min_degree_pick(g, undominated):
    pick = -1
    pick_deg = g.n + 1
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if g.degree(v) < pick_deg:
            pick_deg = g.degree(v)
            pick = v
    return pick


def _old_clique_cover_bound(cmasks, candidates):
    cliques = []
    count = 0
    m = candidates
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        for i, common in enumerate(cliques):
            if common & low:
                cliques[i] = common & cmasks[v]
                break
        else:
            cliques.append(cmasks[v] & ~low)
            count += 1
    return count


def _old_max_conflict_pick(cmasks, candidates):
    pick = -1
    pick_deg = -1
    m = candidates
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        d = (cmasks[v] & candidates).bit_count() - 1
        if d > pick_deg:
            pick_deg = d
            pick = v
    return pick


@settings(max_examples=300, deadline=None)
@given(graph_and_mask(), st.integers(0, 12))
def test_packing_bound_matches_the_greedy_scan(case, cap):
    g, undominated = case
    old = _old_packing_bound(g.closed_masks, undominated)
    near = solvers._conflict_masks(g)
    assert solvers._packing_bound(near, undominated, g.n) == old
    assert solvers._packing_bound(near, undominated, cap) == min(old, cap)


@settings(max_examples=300, deadline=None)
@given(graph_and_mask())
def test_degree_classes_pick_the_min_degree_vertex(case):
    g, undominated = case
    if undominated:
        classes = solvers._degree_classes(map(len, g.adj))
        low = next(c & undominated for _, c in classes if c & undominated)
        assert low & -low == 1 << _old_min_degree_pick(g, undominated)


@settings(max_examples=300, deadline=None)
@given(graph_and_mask(), st.integers(0, 12), st.booleans())
def test_clique_chains_match_the_first_fit_cover(case, cap, conflict):
    # any graph's closed masks are a conflict relation too
    g, candidates = case
    near = solvers._conflict_masks(g) if conflict else list(g.closed_masks)
    old = _old_clique_cover_bound(near, candidates)
    assert solvers._clique_cover_bound(near, candidates, g.n) == old
    assert solvers._clique_cover_bound(near, candidates, cap) == min(old, cap)


@settings(max_examples=300, deadline=None)
@given(graph_and_mask(), st.booleans())
def test_conflict_classes_pick_the_max_conflict_candidate(case, conflict):
    g, candidates = case
    near = solvers._conflict_masks(g) if conflict else list(g.closed_masks)
    classes = solvers._degree_classes(m.bit_count() - 1 for m in near)[::-1]
    if candidates:
        assert solvers._max_conflict_pick(near, classes, candidates) == (
            _old_max_conflict_pick(near, candidates))


def _max_packing_inside(near, candidates):
    # exhaustive in/out branching on the lowest candidate, no bound
    if not candidates:
        return 0
    low = candidates & -candidates
    v = low.bit_length() - 1
    return max(_max_packing_inside(near, candidates ^ low),
               1 + _max_packing_inside(near, candidates & ~near[v]))


def _star_cliques(g, candidates):
    # the star cover's sets, from its description, as sets of vertices
    left = {v for v in range(g.n) if candidates >> v & 1}
    out = []
    while left:
        c = min(left)
        best = max((c, *g.adj[c]),
                   key=lambda w: len(left & ({w} | set(g.adj[w]))))
        out.append(left & ({best} | set(g.adj[best])))
        left -= out[-1]
    return out


@settings(max_examples=300, deadline=None)
@given(graph_and_mask(), st.integers(0, 12))
def test_star_cover_bounds_the_packings_inside_the_candidates(case, cap):
    g, candidates = case
    if g.n > 14:
        candidates &= (1 << 14) - 1
    near = solvers._conflict_masks(g)
    cover = solvers._star_cover_bound(g.closed_masks, g.adj, candidates, g.n)
    assert cover >= _max_packing_inside(near, candidates)
    assert solvers._star_cover_bound(g.closed_masks, g.adj, candidates,
                                     cap) == min(cover, cap)


@settings(max_examples=300, deadline=None)
@given(graph_and_mask())
def test_star_cover_removes_pairwise_conflicting_sets(case):
    g, candidates = case
    near = solvers._conflict_masks(g)
    cliques = _star_cliques(g, candidates)
    assert len(cliques) == solvers._star_cover_bound(g.closed_masks, g.adj,
                                                     candidates, g.n)
    assert sum(map(len, cliques)) == candidates.bit_count()
    for clique in cliques:
        for u, v in combinations(clique, 2):
            assert near[u] >> v & 1, (u, v)


# gamma's search loop against a verbatim copy of the one that bounded each
# node when it was popped, with the pick and bit helpers it called; with
# `fractional` it also prunes with the fractional bound, evaluated from its
# definition in exact fractions


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fewest_dominators_pick(masks, classes, undominated: int, banned: int,
                            touched: int) -> tuple[int, int]:
    pick = -1
    count = len(masks) + 1
    rest = undominated & ~touched
    for deg, cls in classes:
        low = cls & rest
        if low:
            pick = (low & -low).bit_length() - 1
            count = deg + 1
            break
    free = ~banned
    for v in _bits(undominated & touched):
        c = (masks[v] & free).bit_count()
        if c < count or (c == count and v < pick):
            pick, count = v, c
    return pick, count


def _fractional_value(masks, undominated, banned):
    # the dual solution from its definition: the sum of y_v = 1/c(v), c(v)
    # the most undominated vertices an unbanned w in N[v] covers; None
    # when some c(v) = 0
    cs = [max(((masks[w] & undominated).bit_count()
               for w in _bits(masks[v] & ~banned)), default=0)
          for v in _bits(undominated)]
    return None if 0 in cs else sum(Fraction(1, c) for c in cs)


def _former_gamma_component(sub, budget, spent, lower=0, fractional=False):
    n = sub.n
    masks = sub.closed_masks
    near = solvers._conflict_masks(sub)
    classes = solvers._degree_classes(map(len, sub.adj))
    reach = classes[-1][0] + 1  # Delta + 1: the most one dominator covers
    full = (1 << n) - 1
    limit = budget - spent
    nodes = 0
    # n + 1: no dominating set found yet
    best_size = n + 1
    best_set = ()
    stack = [(None, 0, 0, 0, 0)]
    while stack:
        chosen, size, dominated, banned, touched = stack.pop()
        nodes += 1
        if nodes > limit:
            raise solvers.BudgetExceeded(
                "gamma",
                lower=max(-(-n // reach), solvers._packing_bound(near, full, n)),
                upper=len(best_set) if best_set else None,
                witness=best_set,
                nodes=spent + nodes,
            )
        if dominated == full:
            if size < best_size:
                best_size = size
                best_set = solvers._unwind(chosen)
                if size <= lower:
                    break
            continue
        undominated = full & ~dominated
        room = best_size - size  # prune when a lower bound fills it
        if best_size <= n and (
                -(-undominated.bit_count() // reach) >= room
                or solvers._packing_bound(near, undominated, room) >= room):
            continue
        if fractional and best_size <= n:  # the bound, from its definition
            y = _fractional_value(masks, undominated, banned)
            if y is None or y > room - 1:
                continue
        pick, count = _fewest_dominators_pick(masks, classes, undominated,
                                              banned, touched)
        if count == 0:  # every dominator of pick is banned: a dead end
            continue
        # branch on each unbanned dominator u of pick, most newly dominated
        # first (smallest id on ties); later branches ban earlier u
        order = sorted(_bits(masks[pick] & ~banned),
                       key=lambda u: (-(masks[u] & undominated).bit_count(), u))
        children = []
        for u in order:
            children.append(((u, chosen), size + 1, dominated | masks[u],
                             banned, touched))
            banned |= 1 << u
            touched |= masks[u]
        children.reverse()
        stack += children
    return best_set, nodes


def _search_outcome(search, *args):
    try:
        return search(*args)
    except solvers.BudgetExceeded as exc:
        return exc.quantity, exc.lower, exc.upper, exc.witness, exc.nodes


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gamma_search_matches_the_former_loop_node_for_node(data):
    # hypothesis's own lists shrink towards forests, whose searches are
    # trivial; a seeded draw gives average degree 2 to 4
    rng = data.draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 30)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(n, 2 * n))]
    g = Graph.from_edges(n, [(u, v) for u, v in edges if u != v])
    near = solvers._conflict_masks(g)
    # as the one-quantity view calls it, or as solve_pair does: rho as the
    # lower bound
    lower = 0
    if data.draw(st.booleans()):
        lower = len(solvers._solve_rho_component(g, near, 10 ** 9, 0)[0])
    full = _former_gamma_component(g, 10 ** 9, 0, lower)[1]
    spent = data.draw(st.integers(0, 2))
    budget = spent + data.draw(st.integers(1, full + 1))
    assert _search_outcome(solvers._solve_gamma_component, g, near, budget,
                           spent, lower) == _search_outcome(
        _former_gamma_component, g, budget, spent, lower)


# On a regular graph the search also prunes with the fractional bound, so
# it visits a subset of the former loop's nodes, node for node those of the
# loop that evaluates the bound from its definition: the twin of the test
# above and of rho's below


@st.composite
def regular_graphs(draw):
    kind = draw(st.sampled_from(("bicubic", "cycle", "petersen")))
    if kind == "bicubic":
        return gen_random_bicubic(2 * draw(st.integers(3, 20)),
                                  draw(st.integers(0, 10 ** 6)))
    if kind == "cycle":
        return gen_cycle(draw(st.integers(3, 60)))
    n = draw(st.integers(3, 12))  # k < n/2 keeps the inner cycles simple
    return generalized_petersen(n, draw(st.integers(1, (n - 1) // 2)))


@settings(max_examples=200, deadline=None)
@given(regular_graphs(), st.data())
def test_gamma_search_keeps_the_former_witness_on_regular_graphs(g, data):
    near = solvers._conflict_masks(g)
    lower = 0
    if data.draw(st.booleans()):
        lower = len(solvers._solve_rho_component(g, near, 10 ** 9, 0)[0])
    witness, full = _former_gamma_component(g, 10 ** 9, 0, lower)
    assert solvers._solve_gamma_component(g, near, 10 ** 9, 0,
                                          lower)[0] == witness
    # under a budget: an answer the former loop found is found again in no
    # more nodes; a former run-out now answers within its bounds or runs
    # out from the same root bound with an incumbent no larger
    spent = data.draw(st.integers(0, 2))
    budget = spent + data.draw(st.integers(1, full + 1))
    former = _search_outcome(_former_gamma_component, g, budget, spent,
                             lower)
    now = _search_outcome(solvers._solve_gamma_component, g, near, budget,
                          spent, lower)
    # node for node, the former loop with the bound from its definition
    assert now == _search_outcome(_former_gamma_component, g, budget, spent,
                                  lower, True)
    if len(former) == 2:
        assert now[0] == former[0] and now[1] <= former[1]
    elif len(now) == 2:
        assert former[1] <= len(now[0])
        assert former[2] is None or len(now[0]) <= former[2]
    else:
        assert now[1] == former[1]
        assert former[2] is None or now[2] is not None and now[2] <= former[2]
        assert now[4] == former[4] == budget + 1


@st.composite
def regular_states(draw):
    # a small regular graph with random undominated and banned sets
    kind = draw(st.sampled_from(("bicubic", "cycle", "petersen", "k4")))
    if kind == "bicubic":
        g = gen_random_bicubic(2 * draw(st.integers(3, 7)),
                               draw(st.integers(0, 10 ** 6)))
    elif kind == "cycle":
        g = gen_cycle(draw(st.integers(3, 14)))
    else:
        g = petersen() if kind == "petersen" else gen_complete(4)
    full = (1 << g.n) - 1
    return g, draw(st.integers(1, full)), draw(st.integers(0, full))


def _fewest_unbanned_dominators(g, undominated, banned):
    # brute force; None when the unbanned vertices cannot dominate
    free = [w for w in range(g.n) if not banned >> w & 1]
    covered = 0
    for w in free:
        covered |= g.closed_masks[w]
    if undominated & ~covered:
        return None
    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            covered = 0
            for w in combo:
                covered |= g.closed_masks[w]
            if undominated & ~covered == 0:
                return k


@settings(max_examples=300, deadline=None)
@given(regular_states())
def test_fractional_bound_never_exceeds_the_fewest_dominators(case):
    g, undominated, banned = case
    masks = g.closed_masks
    y = _fractional_value(masks, undominated, banned)
    fewest = _fewest_unbanned_dominators(g, undominated, banned)
    assert (y is None) == (fewest is None)
    assert y is None or y <= fewest
    # the search's integer test of it, for every room the counting bound
    # passes
    reach = len(g.adj[0]) + 1
    scale = lcm(*range(1, reach + 1))
    excess = [scale // c - scale // reach if c else 0
              for c in range(reach + 1)]
    intact = sum(1 << w for w in range(g.n)
                 if not banned >> w & 1 and masks[w] & ~undominated == 0)
    left = undominated.bit_count()
    for room in range(1, g.n + 2):
        slack = (room - 1) * scale - left * (scale // reach)
        if slack < 0:
            continue
        prunes = solvers._fractional_bound_prunes(masks, excess, undominated,
                                                  banned, intact, slack)
        assert prunes == (y is None or y > room - 1), room
        assert not prunes or fewest is None or fewest >= room


# rho's search loop against a verbatim copy of the one that pruned with
# the chain cover alone


def _former_rho_component(sub, budget, spent):
    n = sub.n
    near = solvers._conflict_masks(sub)
    classes = solvers._degree_classes(m.bit_count() - 1 for m in near)[::-1]
    full = (1 << n) - 1
    limit = budget - spent
    nodes = 0
    best_size = -1
    best_set = ()
    stack = [(None, 0, full)]
    while stack:
        chosen, size, candidates = stack.pop()
        nodes += 1
        if nodes > limit:
            raise solvers.BudgetExceeded(
                "rho",
                lower=max(best_size, 0),
                upper=solvers._clique_cover_bound(near, full, n),
                witness=best_set,
                nodes=spent + nodes,
            )
        if candidates == 0:
            if size > best_size:
                best_size = size
                best_set = solvers._unwind(chosen)
            continue
        room = best_size - size  # prune when the cover fits in it
        if solvers._clique_cover_bound(near, candidates, room + 1) <= room:
            continue
        pick = solvers._max_conflict_pick(near, classes, candidates)
        stack.append((chosen, size, candidates & ~(1 << pick)))
        stack.append(((pick, chosen), size + 1, candidates & ~near[pick]))
    return best_set, nodes


def _random_subcubic(n, rng):
    # a random tree of maximum degree 3, then random edges between the
    # vertices that still have degree below 3
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if len(adj[u]) < 3])
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(n):
        free = [v for v in range(n) if len(adj[v]) < 3]
        if len(free) < 2:
            break
        u, v = rng.sample(free, 2)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, adj)


@st.composite
def rho_search_graphs(draw):
    kind = draw(st.sampled_from(("subcubic", "bicubic", "cycle", "mixed")))
    if kind == "mixed":
        return draw(mixed_graphs())
    if kind == "cycle":
        return gen_cycle(draw(st.integers(3, 60)))
    if kind == "bicubic":
        return gen_random_bicubic(2 * draw(st.integers(3, 20)),
                                  draw(st.integers(0, 10 ** 6)))
    rng = draw(st.randoms(use_true_random=False))
    return _random_subcubic(rng.randint(1, 40), rng)


@settings(max_examples=200, deadline=None)
@given(rho_search_graphs(), st.data())
def test_rho_search_keeps_the_former_witness_in_no_more_nodes(g, data):
    near = solvers._conflict_masks(g)
    witness, full = _former_rho_component(g, 10 ** 9, 0)
    assert solvers._solve_rho_component(g, near, 10 ** 9, 0)[0] == witness
    # under a budget: an answer the former loop found is found again in no
    # more nodes; a former run-out now answers within its bounds or runs
    # out having got at least as far, with a cover no larger
    spent = data.draw(st.integers(0, 2))
    budget = spent + data.draw(st.integers(1, full + 1))
    former = _search_outcome(_former_rho_component, g, budget, spent)
    now = _search_outcome(solvers._solve_rho_component, g, near, budget,
                          spent)
    if len(former) == 2:
        assert now[0] == former[0] and now[1] <= former[1]
    elif len(now) == 2:
        assert former[1] <= len(now[0]) <= former[2]
    else:
        assert former[1] <= now[1] and now[2] <= former[2]
        assert now[4] == former[4] == budget + 1

if __name__ == "__main__":
    seconds = {}
    rows = search_records(seconds)
    for row in rows:
        out = row[3]
        print(row[0], row[1], row[2], out[:1] + out[2:] if out[0] == "budget"
              else [out[0], out[2]])
    print("rho", _quantity_digest(rows, "rho"))
    print("gamma", _quantity_digest(rows, "gamma"))
    for q in ("gamma", "rho"):
        nodes = sum(row[3][-1] for row in rows if row[1] == q)
        print(f"{q} total: {nodes} nodes, {seconds[q]:.3f} s")
