"""The bound table, each inequality between gamma and rho that gammarho
checks, written once with the order from which it is claimed, and
`bound_records`, the one evaluator that turns rows into records.

A row is a `Bound`.  `evaluate(gamma, rho, n, **extras)` returns
(holds, bound, details): the verdict, the exact right-hand side as
`bound_str` text, and what a report shows beside them.  The extras are
the further numbers a row reads, named in its `needs`: the maximum degree
`delta`, the number `t` of vertices of degree at most 3, the clique
graph's `cg_gamma` and `cg_rho`, the sizes `pack_size` and `dom_size` of
a biconvex graph's packing and dominating certificates, and the number
`k` of blocks of the tight biconvex family.  `Bound.claimed` says for
which graphs a row is claimed: from `min_n` vertices on, and, for a row
that reads `delta`, only where delta >= 1.  Comparisons stay in integers;
a fractional bound is compared cross-multiplied and printed as a Fraction.

`bound_records` is the only caller of `Bound.evaluate` and the only
builder of a record for a row of this table.  The scan's predicates
(`harness.PREDICATES`, which `verify_counterexamples` replays through the
same call), the class records (`certify_bicubic`, `certify_mop` and
`certify_biconvex`, which `harness.CERTIFY` serves to both `certify` and
`reproduce`), the bicubic experiment's conjecture record and the tight
family's records all name rows of this table, each under its own check
name and kind, so a scan predicate and the class record of the same bound
cannot disagree.  An extra is handed in as a plain value; none of them
searches, so none can run out of budget.  When the gamma or rho search ran
out, the same loop gives every claimed row its record with no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .reports import ScanRecord, bound_str
from .solvers import BudgetExceeded

Verdict = tuple[bool, str, dict]


@dataclass(frozen=True)
class Bound:
    """One row of the table; see the module docstring."""

    evaluate: Callable[..., Verdict]
    needs: tuple[str, ...] = ()  # the extras evaluate takes by keyword
    min_n: int = 0

    def claimed(self, n: int, delta: int | None) -> bool:
        """Whether the row is claimed for a graph on n vertices of maximum
        degree delta, which only a row that reads delta looks at.  Such a
        row scales its right-hand side with delta, so it says nothing on
        an edgeless graph (gamma = rho = n while delta = 0); delta >= 1
        also implies n >= 2, which keeps K1 out."""
        return n >= self.min_n and ("delta" not in self.needs or delta >= 1)


# every graph
RHO_LE_GAMMA = Bound(lambda gamma, rho, n: _at_most(rho, gamma))
GAMMA_EQ_RHO = Bound(lambda gamma, rho, n: (gamma == rho, bound_str(rho), {}))
GAMMA_LE_DELTA_RHO = Bound(
    lambda gamma, rho, n, delta: _at_most(gamma, delta * rho),
    ("delta",))
GAMMA_LE_DELTA_MINUS_1_RHO_PLUS_1 = Bound(
    lambda gamma, rho, n, delta: _at_most(gamma, (delta - 1) * rho + 1),
    ("delta",))
GAMMA_LE_RELAXED_DELTA = Bound(
    lambda gamma, rho, n, delta: _at_most(
        gamma, max((delta - 1) * rho, delta * (rho - 1)) + 1),
    ("delta",))
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

# biconvex graphs: 2 rho on the certificate sizes, which holds without the
# solvers, and the bracket pack_size <= rho, gamma <= dom_size
CERTIFIED_GAMMA_LE_2RHO = Bound(
    lambda gamma, rho, n, pack_size, dom_size:
        _at_most(dom_size, 2 * pack_size),
    ("pack_size", "dom_size"))
CERTIFICATES_BRACKET = Bound(
    lambda gamma, rho, n, pack_size, dom_size: (
        pack_size <= rho and gamma <= dom_size, f"{pack_size}..{dom_size}",
        {}),
    ("pack_size", "dom_size"))

# the tight biconvex family of k blocks, where gamma = 2 rho; the reports
# give the last row no bound text
GAMMA_EQ_2K = Bound(
    lambda gamma, rho, n, k: (gamma == 2 * k, bound_str(2 * k), {}), ("k",))
RHO_EQ_K = Bound(lambda gamma, rho, n, k: (rho == k, bound_str(k), {}),
                 ("k",))
GAMMA_EQ_2RHO = Bound(lambda gamma, rho, n: (gamma == 2 * rho, "", {}))


def _at_most(value: int, cap: int) -> Verdict:
    return value <= cap, bound_str(cap), {}


Row = tuple[str, str, Bound]  # (check name, kind, table row)


def bound_records(rows: Sequence[Row], graph_id: str, family: str, n: int,
                  gamma: int | None, rho: int | None,
                  exhausted: BudgetExceeded | None = None,
                  **extras) -> list[ScanRecord]:
    """One record per (check, kind, row) claimed at n, in order, each
    carrying gamma, rho and the row's verdict, read with the values in
    `extras` that the row needs.  When `exhausted` holds a search's
    run-out, gamma and rho are None and each record has no verdict, only
    which search ran out and the range it had proved."""
    records = []
    for check, kind, row in rows:
        if not row.claimed(n, extras.get("delta")):
            continue
        if exhausted is None:
            holds, bound, details = row.evaluate(
                gamma, rho, n, **{name: extras[name] for name in row.needs})
        else:
            holds, bound, details = None, "", {
                "reason": "node budget exhausted", **exhausted.record()}
        records.append(ScanRecord(
            graph_id=graph_id, family=family, n=n, check=check, kind=kind,
            holds=holds, bound=bound, gamma=gamma, rho=rho, details=details))
    return records
