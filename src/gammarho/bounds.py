"""The bound table: each inequality between gamma and rho that gammarho
checks, written once, with the order from which it is claimed.

A row is a `Bound`.  `evaluate(gamma, rho, n, **extras)` returns
(holds, bound, details): the verdict, the exact right-hand side as
`bound_str` text, and what a report shows beside them.  The extras are
the further numbers a row reads, named in its `needs`: the maximum degree
`delta`, the number `t` of vertices of degree at most 3, and the clique
graph's `cg_gamma` and `cg_rho`.  A row is claimed only for graphs on at
least `min_n` vertices.  Comparisons stay in integers; a fractional bound
is compared cross-multiplied and printed as a Fraction.

The scan's predicates (`harness.PREDICATES`) and the class records
(`certify_bicubic`, `certify_mop` and `certify_biconvex`, which
`harness.CERTIFY` serves to both `certify` and `reproduce`, and the
bicubic experiment's conjecture record) name rows of this table, each
under its own check name and kind, so a scan predicate and the class
record of the same bound cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .reports import ScanRecord, bound_str

Verdict = tuple[bool, str, dict]


@dataclass(frozen=True)
class Bound:
    """One row of the table; see the module docstring."""

    evaluate: Callable[..., Verdict]
    needs: tuple[str, ...] = ()  # the extras evaluate takes by keyword
    min_n: int = 0


# every graph
RHO_LE_GAMMA = Bound(lambda gamma, rho, n: _at_most(rho, gamma))
GAMMA_EQ_RHO = Bound(lambda gamma, rho, n: (gamma == rho, bound_str(rho), {}))
GAMMA_LE_DELTA_RHO = Bound(
    lambda gamma, rho, n, delta: _at_most(gamma, delta * rho),
    ("delta",), min_n=2)
GAMMA_LE_DELTA_MINUS_1_RHO_PLUS_1 = Bound(
    lambda gamma, rho, n, delta: _at_most(gamma, (delta - 1) * rho + 1),
    ("delta",), min_n=2)
GAMMA_LE_RELAXED_DELTA = Bound(
    lambda gamma, rho, n, delta: _at_most(
        gamma, max((delta - 1) * rho, delta * (rho - 1)) + 1),
    ("delta",), min_n=2)
GAMMA_LE_2RHO_PLUS_1 = Bound(
    lambda gamma, rho, n: _at_most(gamma, 2 * rho + 1))
GAMMA_LE_2RHO = Bound(lambda gamma, rho, n: _at_most(gamma, 2 * rho))

# cubic bipartite graphs
GAMMA_LE_5N_14 = Bound(
    lambda gamma, rho, n: (14 * gamma <= 5 * n,
                           bound_str(Fraction(5 * n, 14)), {}),
    min_n=9)
RHO_GE_7N_48 = Bound(
    lambda gamma, rho, n: (48 * rho >= 7 * n,
                           bound_str(Fraction(7 * n, 48)), {}),
    min_n=16)
GAMMA_LE_120_49_RHO = Bound(
    lambda gamma, rho, n: (49 * gamma <= 120 * rho,
                           bound_str(Fraction(120 * rho, 49)), {}))

# maximal outerplanar graphs
GAMMA_LE_3RHO = Bound(lambda gamma, rho, n: _at_most(gamma, 3 * rho))
GAMMA_LE_9RHO_PLUS_T_OVER_4 = Bound(
    lambda gamma, rho, n, t: (4 * gamma <= 9 * rho + t,
                              bound_str(Fraction(9 * rho + t, 4)), {"t": t}),
    ("t",))
CLIQUE_GAMMA_EQ_RHO = Bound(
    lambda gamma, rho, n, cg_gamma, cg_rho: (
        cg_gamma == cg_rho, bound_str(cg_rho),
        {"cg_gamma": cg_gamma, "cg_rho": cg_rho}),
    ("cg_gamma", "cg_rho"))
RHO_GE_CLIQUE_RHO = Bound(
    lambda gamma, rho, n, cg_rho: (rho >= cg_rho, bound_str(cg_rho), {}),
    ("cg_rho",))


def _at_most(value: int, cap: int) -> Verdict:
    return value <= cap, bound_str(cap), {}


def bound_records(rows: Sequence[tuple[str, str, Bound]], graph_id: str,
                  family: str, n: int, gamma: int, rho: int,
                  **extras) -> list[ScanRecord]:
    """One record per (check, kind, row) claimed at n, in order, each
    carrying gamma and rho; `extras` holds every extra the rows need."""
    records = []
    for check, kind, row in rows:
        if n < row.min_n:
            continue
        holds, bound, details = row.evaluate(
            gamma, rho, n, **{name: extras[name] for name in row.needs})
        records.append(ScanRecord(
            graph_id=graph_id, family=family, n=n, check=check, kind=kind,
            holds=holds, bound=bound, gamma=gamma, rho=rho, details=details))
    return records
