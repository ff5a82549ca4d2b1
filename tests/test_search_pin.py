"""Pins the gamma and rho searches node for node.

The digests below cover value, witness and node count of every answer,
and every field of every BudgetExceeded, over a seeded corpus, so a change
to the branching order, a tie-break or a bound shows up here even when
the values stay right.  Run this file as a script
(`PYTHONPATH=src python tests/test_search_pin.py`) to print the outcome of
every row, the digests of the code in the working tree, and each
quantity's total nodes and seconds over the corpus: nodes first, since
they repeat exactly on any machine, then seconds.

Both digests were last retaken when both searches came to start each
component that has a vertex of degree 1 from a reduced root (the leaf
rule: gamma takes every support, a vertex beside a leaf, and bans its
leaves; rho takes each support's lowest leaf and drops the support's
closed neighbourhood from the candidates), and rho's root bound came to
take n // (delta + 1) too.  The leaf rule leaves a component without a
leaf alone, so gamma's rows of the graphs without one kept their outcomes
node for node, and rho's kept their witnesses in no more nodes: the new
root bound only stops the search sooner, at the same first optimum.  The
corpus's graphs with a leaf are the five biconvex graphs and
connected-10.  They kept every value; three rho witnesses became other
maximum packings (biconvex-12x12, biconvex-24x24 and connected-10), and
biconvex-18x14's rho run-out at budget 50 now answers 7 in 19 nodes.  On
those six graphs at the full budget, gamma's nodes fell from 53 to 40 and
rho's from 409 to 102; over the corpus gamma's fell from 13,623 to 13,604
and rho's from 27,535 to 27,005.  The former tables below hold the parent
search's rows and pin just that.  The former loops take the rule as their
`leaves` flag, so the searches still match them node for node.

Before that, both were retaken when gamma's search came to skip a
dominated sibling (a dominator of the pick whose new coverage lies inside
an earlier sibling's) and rho's came to run the one-short test (a
failed-literal test on a star cover one clique past the room) on regular
components.  Neither touches the branching order and each prunes only
subtrees that hold no strict improvement, so every answer kept its value
and witness and each search visited a subset of its former nodes.  Over
the corpus gamma's nodes fell from 17,835 to 13,623 and rho's from 31,017
to 27,535; bicubic-64 took 5,610 gamma nodes (was 8,230) and 1,061 rho
nodes (was 2,361).

Before that, both were retaken when each search came to stop at its
first incumbent that meets its own root bound (gamma's the larger of the
counting bound, the greedy packing of the whole component and the lower
bound it is given; rho's the smaller of the star and chain covers of the
whole component) and to report that bound when it runs out.  The branching
order and the bounds were unchanged, so the search stopped at the first
optimum in branching order, the one it returned before, and visited a
prefix of its former nodes; no former run-out came to run out with a
closed range.  cycle-100 at budget 50 went from a gamma run-out with
bounds [34, 34] to the answer 34 in 35 nodes, and gamma on cycle-300 from
301 nodes to 101.

Before that, gamma's digest was retaken when its search came to prune
regular components with the fractional bound (a third dual solution of
the covering LP), and rho's when its search came to prune with the star
cover (closed neighbourhoods) ahead of the chain cover: admissible bounds
under an unchanged branching order, with the same witnesses.
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
from gammarho.graphs import Graph, is_dominating, is_packing
from gammarho.generators import (
    gen_complete,
    gen_complete_bipartite,
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
RHO_DIGEST = "bb3878e5b2a84871a1a6e10583d7701145abdaaeee0bd4b4ed7f672a75fe7b87"
GAMMA_DIGEST = "be1130c5e8876c764c1bde567b079dc8e949f89e1a2340a99dba818a9f0780bc"

# The former gamma search's answers, which started every component from the
# empty root: (graph, budget, gamma, witness, nodes) ...
FORMER_GAMMA_SOLVED = [
    ("bicubic-16", 40000, 5, (0, 2, 6, 9, 12), 18),
    ("bicubic-24", 40000, 7, (0, 2, 6, 7, 13, 15, 19), 30),
    ("bicubic-32", 40000, 9, (0, 6, 8, 10, 12, 18, 20, 21, 24), 162),
    ("bicubic-40", 40000, 11, (0, 1, 4, 7, 13, 14, 26, 29, 32, 33, 39), 140),
    ("bicubic-48", 40000, 13, (0, 3, 9, 10, 17, 20, 21, 26, 27, 29, 30, 40,
     42), 186),
    ("bicubic-56", 40000, 15, (0, 1, 4, 7, 10, 16, 17, 21, 28, 41, 44, 48, 49,
     53, 55), 368),
    ("bicubic-64", 40000, 17, (7, 8, 9, 19, 20, 21, 25, 26, 30, 34, 42, 46, 50,
     51, 52, 56, 57), 5610),
    ("biconvex-6x6", 40000, 4, (1, 3, 6, 11), 5),
    ("biconvex-9x7", 40000, 3, (5, 9, 11), 4),
    ("biconvex-12x12", 40000, 5, (0, 6, 11, 14, 16), 10),
    ("biconvex-18x14", 40000, 7, (0, 1, 7, 16, 17, 21, 26), 11),
    ("biconvex-24x24", 40000, 12, (1, 4, 9, 13, 23, 24, 28, 29, 31, 33, 35,
     36), 20),
    ("connected-10", 40000, 2, (0, 1), 3),
    ("connected-16", 40000, 3, (4, 7, 9), 18),
    ("connected-22", 40000, 3, (1, 2, 11), 50),
    ("connected-28", 40000, 3, (4, 10, 14), 69),
    ("connected-34", 40000, 3, (1, 2, 22), 124),
    ("connected-40", 40000, 3, (11, 28, 31), 176),
    ("mop-6", 40000, 2, (0, 3), 3),
    ("mop-10", 40000, 2, (0, 5), 3),
    ("mop-14", 40000, 3, (1, 5, 13), 4),
    ("mop-18", 40000, 4, (0, 4, 7, 13), 6),
    ("mop-22", 40000, 6, (0, 6, 7, 13, 14, 19), 7),
    ("mop-26", 40000, 6, (0, 3, 5, 13, 17, 21), 12),
    ("mop-30", 40000, 7, (0, 9, 13, 14, 22, 26, 27), 8),
    ("cycle-30", 40000, 10, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27), 11),
    ("cycle-31", 40000, 11, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 28), 12),
    ("cycle-32", 40000, 11, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 29), 12),
    ("cycle-60", 40000, 20, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57), 21),
    ("cycle-100", 40000, 34, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90,
     93, 96, 97), 35),
    ("cycle-150", 40000, 50, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90,
     93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132, 135,
     138, 141, 144, 147), 51),
    ("cycle-300", 40000, 100, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90,
     93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132, 135,
     138, 141, 144, 147, 150, 153, 156, 159, 162, 165, 168, 171, 174, 177, 180,
     183, 186, 189, 192, 195, 198, 201, 204, 207, 210, 213, 216, 219, 222, 225,
     228, 231, 234, 237, 240, 243, 246, 249, 252, 255, 258, 261, 264, 267, 270,
     273, 276, 279, 282, 285, 288, 291, 294, 297), 101),
    ("petersen", 40000, 3, (0, 2, 6), 4),
    ("rook-5", 40000, 5, (0, 4, 6, 12, 18), 230),
    ("union", 40000, 16, (0, 2, 6, 10, 13, 15, 18, 21, 24, 27, 30, 33, 36, 39,
     42, 43), 16),
    ("bicubic-32", 5000, 9, (0, 6, 8, 10, 12, 18, 20, 21, 24), 162),
    ("biconvex-18x14", 50, 7, (0, 1, 7, 16, 17, 21, 26), 11),
    ("biconvex-18x14", 5000, 7, (0, 1, 7, 16, 17, 21, 26), 11),
    ("connected-40", 5000, 3, (11, 28, 31), 176),
    ("mop-30", 50, 7, (0, 9, 13, 14, 22, 26, 27), 8),
    ("mop-30", 5000, 7, (0, 9, 13, 14, 22, 26, 27), 8),
    ("cycle-100", 50, 34, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39,
     42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90, 93,
     96, 97), 35),
    ("cycle-100", 5000, 34, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90,
     93, 96, 97), 35),
    ("cycle-300", 5000, 100, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90,
     93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132, 135,
     138, 141, 144, 147, 150, 153, 156, 159, 162, 165, 168, 171, 174, 177, 180,
     183, 186, 189, 192, 195, 198, 201, 204, 207, 210, 213, 216, 219, 222, 225,
     228, 231, 234, 237, 240, 243, 246, 249, 252, 255, 258, 261, 264, 267, 270,
     273, 276, 279, 282, 285, 288, 291, 294, 297), 101),
    ("rook-5", 5000, 5, (0, 4, 6, 12, 18), 230),
    ("union", 50, 16, (0, 2, 6, 10, 13, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42,
     43), 16),
    ("union", 5000, 16, (0, 2, 6, 10, 13, 15, 18, 21, 24, 27, 30, 33, 36, 39,
     42, 43), 16),
]
# ... and the bounds of its exhausted searches: (graph, budget, lower, upper)
FORMER_GAMMA_EXHAUSTED = [
    ("bicubic-32", 1, 8, 32), ("bicubic-32", 50, 8, 10), ("bicubic-64", 1, 16,
    64), ("bicubic-64", 50, 16, 19), ("bicubic-64", 5000, 16, 18),
    ("biconvex-18x14", 1, 5, 32), ("connected-40", 1, 2, 40), ("connected-40",
    50, 2, 4), ("mop-30", 1, 6, 30), ("cycle-100", 1, 34, 100), ("cycle-300",
    1, 100, 300), ("cycle-300", 50, 100, 300), ("rook-5", 1, 3, 25), ("rook-5",
    50, 3, 5), ("union", 1, 3, 46),
]

# The former rho search's answers, which started every component from the
# empty root and whose root bound was the smaller cover of the whole
# component: (graph, budget, rho, witness, nodes) ...
FORMER_RHO_SOLVED = [
    ("bicubic-16", 40000, 3, (6, 9, 12), 19),
    ("bicubic-24", 40000, 5, (1, 6, 7, 13, 15), 35),
    ("bicubic-32", 40000, 7, (0, 6, 10, 13, 18, 21, 24), 81),
    ("bicubic-40", 40000, 9, (0, 5, 8, 15, 26, 27, 35, 36, 39), 129),
    ("bicubic-48", 40000, 11, (0, 9, 10, 17, 20, 26, 27, 29, 30, 40, 42), 199),
    ("bicubic-56", 40000, 13, (1, 6, 9, 13, 14, 19, 22, 32, 36, 40, 43, 45,
     47), 421),
    ("bicubic-64", 40000, 15, (0, 2, 5, 10, 14, 15, 24, 28, 35, 41, 45, 48, 49,
     53, 60), 1061),
    ("biconvex-6x6", 40000, 4, (0, 3, 5, 8), 25),
    ("biconvex-9x7", 40000, 3, (0, 6, 10), 18),
    ("biconvex-12x12", 40000, 5, (4, 8, 12, 15, 18), 48),
    ("biconvex-18x14", 40000, 7, (1, 4, 9, 16, 18, 22, 30), 82),
    ("biconvex-24x24", 40000, 11, (0, 6, 8, 12, 18, 21, 25, 27, 30, 34, 37),
     225),
    ("connected-10", 40000, 2, (3, 6), 11),
    ("connected-16", 40000, 3, (2, 12, 15), 30),
    ("connected-22", 40000, 1, (0,), 2),
    ("connected-28", 40000, 2, (2, 24), 55),
    ("connected-34", 40000, 1, (0,), 2),
    ("connected-40", 40000, 2, (16, 26), 73),
    ("mop-6", 40000, 2, (2, 5), 11),
    ("mop-10", 40000, 2, (1, 4), 7),
    ("mop-14", 40000, 3, (3, 9, 12), 18),
    ("mop-18", 40000, 4, (3, 7, 14, 17), 27),
    ("mop-22", 40000, 6, (2, 5, 8, 11, 15, 20), 35),
    ("mop-26", 40000, 6, (2, 6, 12, 17, 22, 25), 53),
    ("mop-30", 40000, 7, (5, 8, 12, 15, 18, 25, 28), 72),
    ("cycle-30", 40000, 10, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27), 95),
    ("cycle-31", 40000, 10, (0, 4, 7, 10, 13, 16, 19, 22, 25, 28), 101),
    ("cycle-32", 40000, 10, (0, 5, 8, 11, 14, 17, 20, 23, 26, 29), 107),
    ("cycle-60", 40000, 20, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57), 429),
    ("cycle-100", 40000, 33, (0, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37,
     40, 43, 46, 49, 52, 55, 58, 61, 64, 67, 70, 73, 76, 79, 82, 85, 88, 91,
     94, 97), 1221),
    ("cycle-150", 40000, 50, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90,
     93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132, 135,
     138, 141, 144, 147), 2871),
    ("cycle-300", 40000, 100, (0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
     39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90,
     93, 96, 99, 102, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132, 135,
     138, 141, 144, 147, 150, 153, 156, 159, 162, 165, 168, 171, 174, 177, 180,
     183, 186, 189, 192, 195, 198, 201, 204, 207, 210, 213, 216, 219, 222, 225,
     228, 231, 234, 237, 240, 243, 246, 249, 252, 255, 258, 261, 264, 267, 270,
     273, 276, 279, 282, 285, 288, 291, 294, 297), 11741),
    ("petersen", 40000, 1, (0,), 2),
    ("rook-5", 40000, 1, (0,), 2),
    ("union", 40000, 13, (0, 10, 14, 15, 19, 22, 25, 28, 31, 34, 37, 40, 43),
     103),
    ("bicubic-32", 5000, 7, (0, 6, 10, 13, 18, 21, 24), 81),
    ("bicubic-64", 5000, 15, (0, 2, 5, 10, 14, 15, 24, 28, 35, 41, 45, 48, 49,
     53, 60), 1061),
    ("biconvex-18x14", 5000, 7, (1, 4, 9, 16, 18, 22, 30), 82),
    ("connected-40", 5000, 2, (16, 26), 73),
    ("mop-30", 5000, 7, (5, 8, 12, 15, 18, 25, 28), 72),
    ("cycle-100", 5000, 33, (0, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37,
     40, 43, 46, 49, 52, 55, 58, 61, 64, 67, 70, 73, 76, 79, 82, 85, 88, 91,
     94, 97), 1221),
    ("rook-5", 50, 1, (0,), 2),
    ("rook-5", 5000, 1, (0,), 2),
    ("union", 5000, 13, (0, 10, 14, 15, 19, 22, 25, 28, 31, 34, 37, 40, 43),
     103),
]
# ... and the bounds of its exhausted searches: (graph, budget, lower, upper)
FORMER_RHO_EXHAUSTED = [
    ("bicubic-32", 1, 0, 10), ("bicubic-32", 50, 7, 10), ("bicubic-64", 1, 0,
    21), ("bicubic-64", 50, 13, 21), ("biconvex-18x14", 1, 0, 7),
    ("biconvex-18x14", 50, 6, 7), ("connected-40", 1, 0, 2), ("connected-40",
    50, 1, 2), ("mop-30", 1, 0, 7), ("mop-30", 50, 6, 7), ("cycle-100", 1, 0,
    34), ("cycle-100", 50, 22, 34), ("cycle-300", 1, 0, 100), ("cycle-300", 50,
    0, 100), ("cycle-300", 5000, 86, 100), ("rook-5", 1, 0, 1), ("union", 1, 0,
    37), ("union", 50, 12, 14),
]

# The graphs of the corpus with a vertex of degree 1 in a searched (not
# forest) component: the only ones whose searches start from a reduced root
LEAFY = ("biconvex-6x6", "biconvex-9x7", "biconvex-12x12", "biconvex-18x14",
         "biconvex-24x24", "connected-10")


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


def _leafy(g) -> bool:
    # a vertex of degree 1 in a component that the views search
    return any(sub.m != sub.n - 1 and min(map(len, sub.adj)) == 1
               for sub, _ in map(g.induced, g.components()))


def test_leafy_rows_are_the_graphs_with_a_searched_leaf():
    assert tuple(name for name, g in _corpus() if _leafy(g)) == LEAFY


def test_gamma_keeps_the_former_values_in_no_more_nodes(records):
    graphs = dict(_corpus())
    outcomes = {(row[0], row[2]): row[3]
                for row in records if row[1] == "gamma"}
    assert len(outcomes) == (len(FORMER_GAMMA_SOLVED)
                             + len(FORMER_GAMMA_EXHAUSTED))
    for name, budget, value, witness, nodes in FORMER_GAMMA_SOLVED:
        now = outcomes[name, budget]
        if name in LEAFY:  # the reduced root may reach another minimum set
            assert now[0] == value == len(now[1]), (name, budget, now)
            assert is_dominating(graphs[name], now[1]), (name, budget, now)
            assert now[2] <= nodes, (name, budget, now)
        else:
            assert now == [value, list(witness), nodes], (name, budget, now)
    for name, budget, lower, upper in FORMER_GAMMA_EXHAUSTED:
        now = outcomes[name, budget]
        if name not in LEAFY:
            assert now[0] == "budget" and now[2:4] == [lower, upper], (
                name, budget, now)
        elif now[0] == "budget":  # the same root bound, an open range
            assert lower == now[2], (name, budget, now)
            assert now[3] is None or now[2] < now[3], (name, budget, now)
        else:
            assert lower <= now[0] <= upper, (name, budget, now)


def test_rho_keeps_the_former_witnesses_in_no_more_nodes(records):
    graphs = dict(_corpus())
    outcomes = {(row[0], row[2]): row[3] for row in records if row[1] == "rho"}
    assert len(outcomes) == len(FORMER_RHO_SOLVED) + len(FORMER_RHO_EXHAUSTED)
    for name, budget, value, witness, nodes in FORMER_RHO_SOLVED:
        now = outcomes[name, budget]
        if name in LEAFY:  # the reduced root may reach another maximum one
            assert now[0] == value == len(now[1]), (name, budget, now)
            assert is_packing(graphs[name], now[1]), (name, budget, now)
        else:
            assert now[:2] == [value, list(witness)], (name, budget, now)
        assert now[2] <= nodes, (name, budget, now)
    for name, budget, lower, upper in FORMER_RHO_EXHAUSTED:
        now = outcomes[name, budget]
        if now[0] != "budget":
            assert lower <= now[0] <= upper, (name, budget, now)
            continue
        assert now[2] < now[3], (name, budget, now)
        if name in LEAFY:  # its range holds rho
            assert now[2] <= outcomes[name, PIN_BUDGET][0] <= now[3], (
                name, budget, now)
        else:  # the same incumbent, with a root bound no larger
            assert now[2] == lower and now[3] <= upper, (name, budget, now)


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
    cover = solvers._star_cover(g.closed_masks, g.adj, candidates, g.n)
    assert len(cover) >= _max_packing_inside(near, candidates)
    # stopped at the cap, the cover is the first cap of those cliques
    capped = solvers._star_cover(g.closed_masks, g.adj, candidates, cap)
    assert len(capped) == min(len(cover), cap)
    assert capped == cover[:cap]


@settings(max_examples=300, deadline=None)
@given(graph_and_mask())
def test_star_cover_removes_pairwise_conflicting_sets(case):
    g, candidates = case
    near = solvers._conflict_masks(g)
    cliques = _star_cliques(g, candidates)
    cover = solvers._star_cover(g.closed_masks, g.adj, candidates, g.n)
    assert len(cliques) == len(cover)
    assert cover == [sum(1 << v for v in clique) for clique in cliques]
    assert sum(map(len, cliques)) == candidates.bit_count()
    for clique in cliques:
        for u, v in combinations(clique, 2):
            assert near[u] >> v & 1, (u, v)


@st.composite
def small_regular_candidates(draw):
    # a small regular graph with a random candidate set
    kind = draw(st.sampled_from(("bicubic", "k33", "petersen", "k4")))
    if kind == "bicubic":
        g = gen_random_bicubic(2 * draw(st.integers(3, 7)),
                               draw(st.integers(0, 10 ** 6)))
    elif kind == "k33":
        g = gen_complete_bipartite(3, 3)
    else:
        g = petersen() if kind == "petersen" else gen_complete(4)
    return g, draw(st.integers(1, (1 << g.n) - 1))


@settings(max_examples=300, deadline=None)
@given(small_regular_candidates())
def test_one_short_prunes_only_where_no_packing_fills_the_cover(case):
    # rho's search runs the test on a star cover one clique past its room;
    # a prune says that no packing inside the candidates takes a vertex
    # from every clique, which brute force checks
    g, candidates = case
    near = solvers._conflict_masks(g)
    cliques = solvers._star_cover(g.closed_masks, g.adj, candidates, g.n)
    if solvers._one_short_prunes(near, cliques):
        assert _max_packing_inside(near, candidates) < len(cliques)


def test_one_short_test_prunes_every_two_star_cover_of_k33():
    # K_3,3 has diameter 2, so its conflict graph is complete; a candidate
    # set from both sides has a star cover of two cliques but no packing
    # of two vertices
    g = gen_complete_bipartite(3, 3)
    near = solvers._conflict_masks(g)
    covers = [solvers._star_cover(g.closed_masks, g.adj, candidates, g.n)
              for candidates in range(1, 1 << g.n)]
    two = [cliques for cliques in covers if len(cliques) == 2]
    assert two and all(solvers._one_short_prunes(near, c) for c in two)


# gamma's search loop against a verbatim copy of the one that bounded each
# node when it was popped, with the pick and bit helpers it called; with
# `fractional` it also prunes with the fractional bound, evaluated from its
# definition in exact fractions, with `sibling` it skips each child whose
# new coverage lies inside an earlier sibling's, and with `leaves` it
# starts from the leaf rule's root, built from its definition


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


def _supports(sub):
    # the vertices of degree >= 2 beside a vertex of degree 1, ascending;
    # none when the least degree is not 1, as the searches read the leaves
    # off their least degree class (a test graph may have an isolated
    # vertex, a component never does)
    if min(map(len, sub.adj)) != 1:
        return []
    return sorted({sub.adj[v][0] for v in range(sub.n) if len(sub.adj[v]) == 1
                   and len(sub.adj[sub.adj[v][0]]) > 1})


def _former_gamma_component(sub, budget, spent, lower=0, fractional=False,
                            sibling=False, leaves=False):
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
    supports = _supports(sub) if leaves else []
    if supports:
        # every support chosen, every leaf beside one banned
        chosen, dominated, banned, touched = None, 0, 0, 0
        for u in supports:
            chosen = (u, chosen)
            dominated |= masks[u]
        for v in range(n):
            if len(sub.adj[v]) == 1 and sub.adj[v][0] in supports:
                banned |= 1 << v
                touched |= masks[v]
        stack = [(chosen, len(supports), dominated, banned, touched)]
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
        earlier = []
        for u in order:
            new = masks[u] & undominated
            if not (sibling and any(new & ~e == 0 for e in earlier)):
                children.append(((u, chosen), size + 1, dominated | masks[u],
                                 banned, touched))
            earlier.append(new)
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


def _root_bound(g, near, lower):
    # gamma's root bound: the search stops at it and a run-out reports it
    reach = max(map(len, g.adj)) + 1
    return max(lower, -(-g.n // reach),
               solvers._packing_bound(near, (1 << g.n) - 1, g.n))


def _former_at_root(g, near, budget, spent, lower, fractional=False,
                    sibling=False, leaves=False):
    # the former loop given the root bound as its `lower`: it stops where
    # the search does, and its run-out reports the root bound too
    root = _root_bound(g, near, lower)
    out = _search_outcome(_former_gamma_component, g, budget, spent, root,
                          fractional, sibling, leaves)
    return out if len(out) == 2 else (out[0], root, *out[2:])


def _seeded_graph(data, most):
    # hypothesis's own lists shrink towards forests, whose searches are
    # trivial; a seeded draw gives average degree 2 to 4
    rng = data.draw(st.randoms(use_true_random=False))
    n = rng.randint(1, most)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(n, 2 * n))]
    return Graph.from_edges(n, [(u, v) for u, v in edges if u != v])


def _draw_lower(data, g, near):
    # as the one-quantity view calls gamma's search, or as solve_pair
    # does: rho as the lower bound
    if data.draw(st.booleans()):
        return len(solvers._solve_rho_component(g, near, 10 ** 9, 0)[0])
    return 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gamma_search_matches_the_former_loop_node_for_node(data):
    g = _seeded_graph(data, 30)
    near = solvers._conflict_masks(g)
    lower = _draw_lower(data, g, near)
    full = _former_gamma_component(g, 10 ** 9, 0, lower, leaves=True)[1]
    spent = data.draw(st.integers(0, 2))
    budget = spent + data.draw(st.integers(1, full + 1))
    assert _search_outcome(solvers._solve_gamma_component, g, near, budget,
                           spent, lower) == _former_at_root(
                               g, near, budget, spent, lower, sibling=True,
                               leaves=True)


# Sibling dominance against its exchange argument: a set that takes child
# i's dominator can swap it for the earlier sibling's whose coverage holds
# child i's, so no value changes and the first optimum in branching order,
# the former loop's witness, is still found, in no more nodes.


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sibling_dominance_keeps_gamma_on_small_graphs(data):
    g = _seeded_graph(data, 14)
    gamma = solvers.brute_gamma(g)
    for found in (solvers.domination_number(g), solvers.solve_pair(g)[0]):
        assert found.value == gamma == len(found.witness)
        assert is_dominating(g, found.witness)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sibling_dominance_keeps_the_former_witness_in_no_more_nodes(data):
    g = _seeded_graph(data, 30)
    near = solvers._conflict_masks(g)
    lower = _draw_lower(data, g, near)
    witness, nodes = _former_at_root(g, near, 10 ** 9, 0, lower, leaves=True)
    now = solvers._solve_gamma_component(g, near, 10 ** 9, 0, lower)
    assert now[0] == witness and now[1] <= nodes


# The leaf rule against its exchange arguments: a tree with a few chords
# is full of leaves, and both searches start from the reduced root there,
# so gamma and rho must stay brute force's through the pair and both
# views, with witnesses that check.


@st.composite
def leafy_graphs(draw):
    # a random recursive tree on n <= 14 vertices plus 0-4 chords
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 14))
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 4))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(leafy_graphs())
def test_the_leaf_rule_keeps_gamma_and_rho_on_leafy_graphs(g):
    gamma, rho = solvers.brute_gamma(g), solvers.brute_rho(g)
    for dom, pack in (solvers.solve_pair(g), (solvers.domination_number(g),
                                              solvers.packing_number(g))):
        assert dom.value == gamma == len(dom.witness)
        assert is_dominating(g, dom.witness)
        assert pack.value == rho == len(pack.witness)
        assert is_packing(g, pack.witness)


# On a regular graph the search also prunes with the fractional bound, so
# it visits a subset of the former loop's nodes, node for node those of the
# loop that evaluates the bound from its definition and skips dominated
# siblings: the twin of the tests above and of rho's below


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
    lower = _draw_lower(data, g, near)
    witness, full = _former_gamma_component(g, 10 ** 9, 0, lower)
    assert solvers._solve_gamma_component(g, near, 10 ** 9, 0,
                                          lower)[0] == witness
    # under a budget: an answer the former loop found is found again in no
    # more nodes; a former run-out now answers within its bounds or runs
    # out from a root bound no lower with an incumbent no larger, and never
    # with a closed range
    spent = data.draw(st.integers(0, 2))
    budget = spent + data.draw(st.integers(1, full + 1))
    former = _search_outcome(_former_gamma_component, g, budget, spent,
                             lower)
    now = _search_outcome(solvers._solve_gamma_component, g, near, budget,
                          spent, lower)
    # node for node, the former loop with the bound from its definition
    # and sibling dominance, stopped at the root bound
    assert now == _former_at_root(g, near, budget, spent, lower, True, True)
    if len(former) == 2:
        assert now[0] == former[0] and now[1] <= former[1]
    elif len(now) == 2:
        assert former[1] <= len(now[0])
        assert former[2] is None or len(now[0]) <= former[2]
    else:
        assert now[1] >= former[1]
        assert former[2] is None or now[2] is not None and now[2] <= former[2]
        assert now[2] is None or now[1] < now[2]
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
# the chain cover alone; with `leaves` it starts from the leaf rule's
# root, built from its definition


def _former_rho_component(sub, budget, spent, leaves=False):
    n = sub.n
    near = solvers._conflict_masks(sub)
    full = (1 << n) - 1
    limit = budget - spent
    nodes = 0
    best_size = -1
    best_set = ()
    stack = [(None, 0, full)]
    supports = _supports(sub) if leaves else []
    if supports:
        # each support's lowest leaf taken, the support's N[u] dropped
        chosen, candidates = None, full
        for u in supports:
            chosen = (min(v for v in sub.adj[u] if len(sub.adj[v]) == 1),
                      chosen)
            candidates &= ~sub.closed_masks[u]
        stack = [(chosen, len(supports), candidates)]
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
        pick = solvers._max_conflict_pick(near, candidates)
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
    witness, full = _former_rho_component(g, 10 ** 9, 0, leaves=True)
    assert solvers._solve_rho_component(g, near, 10 ** 9, 0)[0] == witness
    # under a budget: an answer the former loop found is found again in no
    # more nodes; a former run-out now answers within its bounds or runs
    # out having got at least as far, with a cover no larger, and never
    # with a closed range
    spent = data.draw(st.integers(0, 2))
    budget = spent + data.draw(st.integers(1, full + 1))
    former = _search_outcome(_former_rho_component, g, budget, spent, True)
    now = _search_outcome(solvers._solve_rho_component, g, near, budget,
                          spent)
    if len(former) == 2:
        assert now[0] == former[0] and now[1] <= former[1]
    elif len(now) == 2:
        assert former[1] <= len(now[0]) <= former[2]
    else:
        assert former[1] <= now[1] < now[2] <= former[2]
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
