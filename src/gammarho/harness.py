"""Scan driver: evaluate named bound predicates over graph corpora, in
parallel when asked, with machine-checkable counterexample dumps.

Predicates are either theorems (a failure means an implementation bug or a
bad input, exit code 3 downstream) or conjectures (a failure is a genuine
counterexample, exit code 2, and the offending graph is dumped with both
optimal witnesses so the violation can be replayed from the dump alone).
A predicate is a plain (name, kind, row, family) entry: the row of the
bound table (`gammarho.bounds`) it checks, and the family of graphs on
which it does.  `graph_facts` builds one graph's `GraphFacts` in one step:
its families (with the triangulation of a mop; `subcubic` is Delta <= 3),
its maximum degree, and gamma and rho with optimal witnesses from one pair
solve, or the budget run-out in their place.  `evaluate_predicates` hands
the rows whose family the graph is in to `bounds.bound_records`, the one
evaluator, with the run-out if there is one, with Delta from the facts,
and with t and the clique graph's gamma and rho, computed only when a row
that applies reads them; none of them searches.  It reads the
counterexamples off the conjecture records that fail, and
`verify_counterexamples` replays a dump through the same call.  A
certificate that fails its own check raises CertificateError, which gives
the item's error record.

`CERTIFY` maps each `certify` class to the one function that builds its
certificates and records; the class records read the same table rows as
the predicates, and `reproduce` reaches each class through the same entry.
The tight family's records are table rows too.  `certify` and `reproduce`
call an entry through `guarded`: a budget run-out gives one solver-budget
record, and any other exception but a ValueError (input outside the class,
exit 1) gives the scan's error record, and the run goes on to exit 3.

Every parallel map goes through `map_items`: serial for one job or one
item, else one `multiprocessing.Pool.map` on at most one process per item,
with the stdlib's default chunking, which hands each worker about four
contiguous chunks of items instead of one item per round trip.  Graphs
travel between processes as graph6 strings; records come back as flat
tuples (`ScanRecord.__reduce__`: the class and the ten field values, no
`__dict__` of field names), in submission order, so a scan's report is
byte-identical for a fixed corpus no matter how many workers ran it.
`reports.write_report` writes each record's line from one fixed-key
template.  An item whose evaluation raises becomes one `error` record
(exit code 3) and the scan goes on.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import sys
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import bounds
from .biconvex import ConvexOrdering, certify_biconvex, validate_convex
from .bicubic import certify_bicubic, validate_bicubic
from .formats import decode_graph6, encode_graph6
from .generators import (
    enumerate_bicubic,
    gen_cycle,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_rook,
    gen_sun,
    gen_tight_family,
    generalized_petersen,
    heawood,
    petersen,
)
from .graphs import Graph
from .outerplanar import (
    Triangulation,
    certify_mop,
    clique_graph_numbers,
    low_degree_count,
    recognize_mop,
)
from .reports import ScanRecord
from .solvers import BudgetExceeded, DEFAULT_BUDGET, solve_pair


@dataclass(frozen=True)
class ScanItem:
    """One graph queued for scanning; the graph itself is carried as
    graph6 so items pickle cheaply."""

    graph_id: str
    family: str
    graph6: str
    ordering: ConvexOrdering | None = None


def make_item(graph_id: str, family: str, g: Graph,
              ordering: ConvexOrdering | None = None) -> ScanItem:
    return ScanItem(graph_id, family, encode_graph6(g), ordering)


def map_items(fn: Callable, items: Sequence, jobs: int) -> list:
    """[fn(x) for x in items], on a pool of min(jobs, len(items)) processes
    when that is more than one.  The pool's default chunking sends each
    worker about four contiguous chunks; results come back in submission
    order either way."""
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(x) for x in items]
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, items)


@dataclass(frozen=True)
class GraphFacts:
    """One graph, its families and maximum degree, and its exact gamma and
    rho with optimal witnesses; `triangulation` is set exactly when "mop"
    is a family.  When the solve ran out of budget, `exhausted` holds the
    BudgetExceeded, gamma and rho are None and the witnesses are empty."""

    graph_id: str
    family: str
    graph: Graph
    ordering: ConvexOrdering | None
    families: frozenset[str]
    triangulation: Triangulation | None
    delta: int
    gamma: int | None
    rho: int | None
    dominating: tuple[int, ...]
    packing: tuple[int, ...]
    exhausted: BudgetExceeded | None = None


def _classify(g: Graph, ordering: ConvexOrdering | None, delta: int
              ) -> tuple[frozenset[str], Triangulation | None]:
    """The families of g, whose maximum degree is delta, and its
    triangulation when g is a mop."""
    fams = {"any"}
    if delta <= 3:
        fams.add("subcubic")
    if g.is_tree():
        fams.add("tree")
    try:
        validate_bicubic(g)
        fams.add("bicubic")
    except ValueError:
        pass
    try:
        triangulation = recognize_mop(g)
        fams.add("mop")
    except ValueError:
        triangulation = None
    if ordering is not None:
        try:
            validate_convex(g, ordering)
            if g.is_connected():
                fams.add("biconvex")
        except ValueError:
            pass
    return frozenset(fams), triangulation


def detect_families(g: Graph, ordering: ConvexOrdering | None) -> frozenset[str]:
    return _classify(g, ordering, g.max_degree())[0]


def graph_facts(graph_id: str, family: str, g: Graph,
                ordering: ConvexOrdering | None, budget: int) -> GraphFacts:
    """Classify g and solve gamma and rho in one pair solve, which reuses
    the triangulation of a mop; a solve that exhausts the budget is kept
    in `exhausted`."""
    delta = g.max_degree()
    families, triangulation = _classify(g, ordering, delta)
    known = (graph_id, family, g, ordering, families, triangulation, delta)
    try:
        gamma, rho = solve_pair(g, budget, triangulation)
    except BudgetExceeded as exc:
        return GraphFacts(*known, None, None, (), (), exc)
    return GraphFacts(*known, gamma.value, rho.value, gamma.witness,
                      rho.witness)


# name -> (name, kind, table row, family): the row is claimed as `kind` on
# every graph of the family for which the row itself is claimed
PREDICATES: dict[str, tuple[str, str, bounds.Bound, str]] = {
    p[0]: p
    for p in [
        ("rho-le-gamma", "theorem", bounds.RHO_LE_GAMMA, "any"),
        ("gamma-le-delta-rho", "theorem", bounds.GAMMA_LE_DELTA_RHO, "any"),
        ("tree-gamma-eq-rho", "theorem", bounds.GAMMA_EQ_RHO, "tree"),
        ("gamma-eq-rho", "conjecture", bounds.GAMMA_EQ_RHO, "any"),
        ("subcubic-gamma-le-2rho-plus-1", "conjecture",
         bounds.GAMMA_LE_2RHO_PLUS_1, "subcubic"),
        ("gamma-le-delta-minus-1-rho-plus-1", "conjecture",
         bounds.GAMMA_LE_DELTA_MINUS_1_RHO_PLUS_1, "any"),
        ("gamma-le-relaxed-delta", "conjecture",
         bounds.GAMMA_LE_RELAXED_DELTA, "any"),
        ("bicubic-gamma-le-5n-14", "theorem", bounds.GAMMA_LE_5N_14,
         "bicubic"),
        ("bicubic-rho-ge-7n-48", "theorem", bounds.RHO_GE_7N_48, "bicubic"),
        ("bicubic-49gamma-le-120rho", "theorem", bounds.GAMMA_LE_120_49_RHO,
         "bicubic"),
        ("mop-gamma-le-3rho", "theorem", bounds.GAMMA_LE_3RHO, "mop"),
        ("mop-4gamma-le-9rho-plus-t", "theorem",
         bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4, "mop"),
        ("mop-clique-gamma-eq-rho", "theorem", bounds.CLIQUE_GAMMA_EQ_RHO,
         "mop"),
        ("mop-gamma-le-2rho", "conjecture", bounds.GAMMA_LE_2RHO, "mop"),
        ("biconvex-gamma-le-2rho", "theorem", bounds.GAMMA_LE_2RHO,
         "biconvex"),
    ]
}

# gamma-eq-rho is false in general; it exists to exercise the
# counterexample path on demand, so scans do not run it by default
DEFAULT_PREDICATES = tuple(
    name for name in sorted(PREDICATES) if name != "gamma-eq-rho"
)


def evaluate_predicates(facts: GraphFacts, names: Sequence[str]
                        ) -> tuple[list[ScanRecord], list[dict]]:
    """Records of the named predicates whose family the graph is in, from
    `bounds.bound_records`, and a counterexample for each conjecture that
    fails.  t and the clique graph's numbers are computed only when a row
    that applies reads them; when gamma or rho ran out, no extra but Delta
    is computed, and every claimed row gets a record with no verdict."""
    g = facts.graph
    rows = [PREDICATES[name][:3] for name in names
            if PREDICATES[name][3] in facts.families]
    extras = {"delta": facts.delta}
    if facts.exhausted is None:
        needs = {need for _, _, row in rows for need in row.needs}
        if "t" in needs:
            extras["t"] = low_degree_count(g)
        if needs & {"cg_gamma", "cg_rho"}:
            cg_gamma, cg_rho = clique_graph_numbers(facts.triangulation)
            extras.update(cg_gamma=cg_gamma.value, cg_rho=cg_rho.value)
    records = bounds.bound_records(
        rows, facts.graph_id, facts.family, g.n, facts.gamma, facts.rho,
        facts.exhausted, **extras)
    o = facts.ordering
    counterexamples = [{
        "graph_id": facts.graph_id,
        "family": facts.family,
        "predicate": r.check,
        "graph6": encode_graph6(g),
        "gamma": facts.gamma,
        "rho": facts.rho,
        "bound": r.bound,
        "dominating": list(facts.dominating),
        "packing": list(facts.packing),
        "x_order": list(o.x_order) if o else None,
        "y_order": list(o.y_order) if o else None,
    } for r in records if r.holds is False and r.kind == "conjecture"]
    return records, counterexamples


def _error_record(graph_id: str, family: str, n: int,
                  exc: Exception) -> ScanRecord:
    """The one error record that stands for a graph whose evaluation
    raised; it keeps the exception's type and message."""
    return ScanRecord(graph_id=graph_id, family=family, n=n,
                      check="scan-error", kind="error", holds=None,
                      details={"error": type(exc).__name__,
                               "message": str(exc)})


def _predicate_worker(
    args: tuple[ScanItem, tuple[str, ...], int],
) -> tuple[list[ScanRecord], list[dict]]:
    item, names, budget = args
    g = decode_graph6(item.graph6)  # written by make_item, so it decodes
    try:
        return evaluate_predicates(
            graph_facts(item.graph_id, item.family, g, item.ordering, budget),
            names)
    except Exception as exc:  # one failing item must not sink the scan
        traceback.print_exc()  # the record keeps only the type and message
        return [_error_record(item.graph_id, item.family, g.n, exc)], []


def run_scan(items: Sequence[ScanItem],
             predicates: Sequence[str] = DEFAULT_PREDICATES,
             budget: int = DEFAULT_BUDGET,
             jobs: int = 1) -> tuple[list[ScanRecord], list[dict]]:
    """Evaluate the named predicates on every item.  Returns the records
    (submission order) and the conjecture counterexamples found.  An
    empty predicate list is a ValueError: a scan that checks nothing
    passes nothing."""
    if not predicates:
        raise ValueError("no predicate to check")
    for name in predicates:
        if name not in PREDICATES:
            raise ValueError(f"unknown predicate {name!r}")
    args = [(item, tuple(predicates), budget) for item in items]
    outcomes = map_items(_predicate_worker, args, jobs)
    records: list[ScanRecord] = []
    counterexamples: list[dict] = []
    for recs, ces in outcomes:
        records.extend(recs)
        counterexamples.extend(ces)
    return records, counterexamples


def scan_verdict(records: Iterable[ScanRecord]) -> int:
    """Process exit code for a record set: 3 for any theorem failure or
    error record, else 2 for any conjecture counterexample, else 0."""
    code = 0
    for r in records:
        if r.kind == "error":
            return 3
        if r.holds is False:
            if r.kind == "theorem":
                return 3
            code = 2
    return code


def write_counterexamples(counterexamples: Sequence[dict], sink) -> None:
    for ce in counterexamples:
        sink.write(json.dumps(ce, sort_keys=True) + "\n")


def verify_counterexamples(lines: Iterable[str],
                           budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Replay a counterexample dump: re-solve each graph from its graph6
    alone and re-evaluate the named predicate.  Each returned entry gains
    a `still_violates` flag; an entry whose solve runs out of budget gets
    None there, plus the run-out's `quantity` and `range` as `compute`
    reports them, and the replay goes on."""
    results = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        ce = json.loads(line)
        ordering = None
        if ce.get("x_order") is not None:
            ordering = ConvexOrdering(tuple(ce["x_order"]),
                                      tuple(ce["y_order"]))
        facts = graph_facts(ce["graph_id"], ce["family"],
                            decode_graph6(ce["graph6"]), ordering, budget)
        out = dict(ce)
        exc = facts.exhausted
        if exc is not None:
            out.update(still_violates=None, quantity=exc.quantity,
                       range=[exc.lower, exc.upper])
        else:
            records, _ = evaluate_predicates(facts, [ce["predicate"]])
            out["still_violates"] = any(r.holds is False for r in records)
        results.append(out)
    return results


# ------------------------------------------------------- default corpus ----

def default_scan_items() -> list[ScanItem]:
    """Mixed corpus for plain `scan`: random trees, small connected graphs,
    random bicubic / maximal outerplanar / biconvex graphs, and a shelf of
    named graphs.  Everything is seeded, so the corpus is fixed."""
    items: list[ScanItem] = []
    for s in range(40):
        n = 5 + (s * 7) % 36
        items.append(make_item(f"tree-{s}", "tree", gen_random_tree(n, s)))
    for s in range(60):
        n = 4 + s % 9
        items.append(make_item(f"conn-{s}", "any",
                               gen_random_connected(n, 1000 + s)))
    for s in range(25):
        n = 16 + 2 * (s % 5)
        items.append(make_item(f"bicubic-{s}", "bicubic",
                               gen_random_bicubic(n, 2000 + s)))
    for s in range(60):
        n = 4 + s % 15
        items.append(make_item(f"mop-{s}", "mop", gen_random_mop(n, 3000 + s)))
    for s in range(60):
        nx = 2 + s % 9
        ny = 2 + (s // 9) % 9
        g, ordering = gen_random_biconvex(nx, ny, 4000 + s)
        items.append(make_item(f"biconvex-{s}", "biconvex", g, ordering))
    named = [
        ("petersen", petersen()),
        ("heawood", heawood()),
        ("cube", generalized_petersen(4, 1)),
        ("moebius-kantor", generalized_petersen(8, 3)),
        ("desargues", generalized_petersen(10, 3)),
        ("sun", gen_sun()),
        ("rook-4", gen_rook(4)),
        ("c4", gen_cycle(4)),
        ("c7", gen_cycle(7)),
    ]
    for gid, g in named:
        items.append(make_item(gid, "named", g))
    return items


# -------------------------------------------------------- certificates ----

def _certify_any(graph_id: str, g: Graph, ordering: ConvexOrdering | None,
                 budget: int, family: str = "any") -> tuple[dict, list]:
    """Exact gamma and rho with optimal witnesses, and the records of every
    default predicate that applies to g."""
    facts = graph_facts(graph_id, family, g, ordering, budget)
    if facts.exhausted is not None:
        raise facts.exhausted
    records, _ = evaluate_predicates(facts, DEFAULT_PREDICATES)
    return {"gamma": facts.gamma, "rho": facts.rho,
            "dominating": list(facts.dominating),
            "packing": list(facts.packing)}, records


def _certify_tree(graph_id: str, g: Graph, ordering: ConvexOrdering | None,
                  budget: int) -> tuple[dict, list]:
    if not g.is_tree():
        raise ValueError("input is not a tree")
    return _certify_any(graph_id, g, ordering, budget, "tree")


# class -> fn(graph_id, g, ordering, budget) returning (certificates keyed
# as in a certify bundle, records); a solve that runs out of budget raises
# BudgetExceeded
CERTIFY: dict[str, Callable[..., tuple[dict, list[ScanRecord]]]] = {
    "any": _certify_any,
    "tree": _certify_tree,
    "bicubic": lambda graph_id, g, ordering, budget:
        certify_bicubic(g, graph_id, budget),
    "mop": lambda graph_id, g, ordering, budget:
        certify_mop(g, graph_id, budget),
    "biconvex": lambda graph_id, g, ordering, budget:
        certify_biconvex(g, ordering, graph_id, budget),
}


# ---------------------------------------------------------- experiments ----

# the tight family's exact values: k disjoint blocks, so the
# connected-graph certificate machinery does not apply
_TIGHT_RECORDS = (
    ("tight-gamma-eq-2k", "theorem", bounds.GAMMA_EQ_2K),
    ("tight-rho-eq-k", "theorem", bounds.RHO_EQ_K),
    ("tight-gamma-eq-2rho", "theorem", bounds.GAMMA_EQ_2RHO),
)


def _certify_tight(item: ScanItem, g: Graph,
                   budget: int) -> tuple[dict, list[ScanRecord]]:
    # the family has n = 4k
    gamma, rho = solve_pair(g, budget)
    return {}, bounds.bound_records(_TIGHT_RECORDS, item.graph_id,
                                    item.family, g.n, gamma.value, rho.value,
                                    k=g.n // 4)


def budget_record(graph_id: str, family: str, n: int,
                  exc: BudgetExceeded) -> ScanRecord:
    """The one info record that stands for a graph whose solve ran out of
    budget in an experiment or a certify bundle."""
    return ScanRecord(graph_id=graph_id, family=family, n=n,
                      check="solver-budget", kind="info", holds=None,
                      details={"quantity": exc.quantity,
                               "range": [exc.lower, exc.upper]})


def guarded(graph_id: str, family: str, n: int,
            certify: Callable[[], tuple[dict, list[ScanRecord]]]
            ) -> tuple[dict | None, list[ScanRecord]]:
    """`certify()`, a `CERTIFY` entry bound to one graph: its certificates
    and records.  A solve that runs out of budget gives no certificates
    and one solver-budget record.  Any other exception but a ValueError
    (the graph is not in the class, which stops the run) gives none and
    the scan's error record, and one line on stderr; the run goes on and
    ends with exit 3."""
    try:
        return certify()
    except BudgetExceeded as exc:
        return None, [budget_record(graph_id, family, n, exc)]
    except ValueError:
        raise
    except Exception as exc:  # one failing graph must not sink the run
        print(f"gammarho: certificate failure: {graph_id}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return None, [_error_record(graph_id, family, n, exc)]


def _experiment_worker(args: tuple[str, ScanItem, int]) -> list[ScanRecord]:
    """The records of one job: the tight family's exact values, or the
    class's `CERTIFY` records, which for bicubic-small gain the 2rho
    conjecture under the item's own family; both through `guarded`."""
    kind, item, budget = args
    g = decode_graph6(item.graph6)
    if kind == "tight":
        certify = functools.partial(_certify_tight, item, g, budget)
    else:
        certify = functools.partial(CERTIFY[kind], item.graph_id, g,
                                    item.ordering, budget)
    certs, records = guarded(item.graph_id, item.family, g.n, certify)
    if kind == "bicubic" and certs is not None:
        # every class record carries the exact values
        records += bounds.bound_records(
            [("gamma-le-2rho", "conjecture", bounds.GAMMA_LE_2RHO)],
            item.graph_id, item.family, g.n, records[-1].gamma,
            records[-1].rho)
    return records


def _experiment_jobs(name: str, corpus: Sequence[Graph] | None,
                     budget: int) -> list[tuple[str, ScanItem, int]]:
    jobs: list[tuple[str, ScanItem, int]] = []
    if name == "bicubic-small":
        for n in (6, 8, 10, 12):
            for i, g in enumerate(enumerate_bicubic(n)):
                item = make_item(f"bicubic-{n}-{i}", "bicubic-exhaustive", g)
                jobs.append(("bicubic", item, budget))
        for i, g in enumerate(corpus or ()):
            item = make_item(f"bicubic-corpus-{i}", "bicubic-corpus", g)
            jobs.append(("bicubic", item, budget))
    elif name == "tight-family":
        for k in range(1, 7):
            g, ordering = gen_tight_family(k)
            item = make_item(f"tight-{k}", "biconvex-tight", g, ordering)
            jobs.append(("tight", item, budget))
    elif name == "mop-theorem4":
        for s in range(200):
            n = 4 + s % 15
            item = make_item(f"mop-{s}", "mop", gen_random_mop(n, s))
            jobs.append(("mop", item, budget))
    elif name == "biconvex-theorem12":
        for s in range(200):
            nx = 2 + s % 9
            ny = 2 + (s // 9) % 9
            g, ordering = gen_random_biconvex(nx, ny, s)
            item = make_item(f"biconvex-{s}", "biconvex", g, ordering)
            jobs.append(("biconvex", item, budget))
    else:
        raise ValueError(f"unknown experiment {name!r}")
    return jobs


# Accepted ids for the reproduce command; kept stable as external interface.
EXPERIMENTS = ("bicubic-small", "tight-family", "mop-theorem4",
               "biconvex-theorem12")


def run_experiment(name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1,
                   corpus: Sequence[Graph] | None = None) -> list[ScanRecord]:
    """Re-run one of the canned verification experiments end to end;
    bicubic-small also takes the graphs of `corpus`."""
    work = _experiment_jobs(name, corpus, budget)
    outcomes = map_items(_experiment_worker, work, jobs)
    return [r for out in outcomes for r in out]
