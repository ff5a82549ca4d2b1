"""Scan driver: evaluate named bound predicates over graph corpora, in
parallel when asked, with machine-checkable counterexample dumps.

Predicates are either theorems (a failure means an implementation bug or a
bad input, exit code 3 downstream) or conjectures (a failure is a genuine
counterexample, exit code 2, and the offending graph is dumped with both
optimal witnesses so the violation can be replayed from the dump alone).
Each predicate names the row of the bound table (`gammarho.bounds`) it
checks and the class condition under which it does.  `evaluate_predicates`
hands the rows that apply to `bounds.bound_records`, the one evaluator,
with Delta from the classification and with t and the clique graph's gamma
and rho as functions, called only for a claimed row that reads them and
once per graph.  It reads the counterexamples off the conjecture records
that fail, and `verify_counterexamples` replays a dump through the same
call.  When gamma or rho runs out of budget, every row that applies gets
the record of `bounds.inconclusive_records`; when an extra does, only the
rows that read it do.

`CERTIFY` maps each `certify` class to the one function that builds its
certificates and records; the class records read the same table rows as
the predicates, and `reproduce` reaches each class through the same entry.
The tight family's records are table rows too.

Every parallel map goes through `map_items`: serial for one job, else one
`multiprocessing.Pool.map` with the stdlib's default chunking, which hands
each worker about four contiguous chunks of items instead of one item per
round trip.  Graphs travel between processes as graph6 strings; records
come back in submission order, so a scan's report is byte-identical for a
fixed corpus no matter how many workers ran it.  An item whose evaluation
raises anything but `BudgetExceeded` becomes one `error` record (exit code
3) and the scan goes on.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
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
from .solvers import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    domination_number,
    packing_number,
)


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
    """[fn(x) for x in items], on a pool of `jobs` processes when jobs > 1.
    The pool's default chunking sends each worker about four contiguous
    chunks; results come back in submission order either way."""
    if jobs <= 1:
        return [fn(x) for x in items]
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, items)


@dataclass(frozen=True)
class Classified:
    """One graph, its maximum degree and its families, before any solve;
    `triangulation` is set exactly when "mop" is a family.  A predicate
    decides whether it applies from these fields alone."""

    graph_id: str
    family: str
    graph: Graph
    ordering: ConvexOrdering | None
    families: frozenset[str]
    triangulation: Triangulation | None
    budget: int
    delta: int


@dataclass(frozen=True)
class GraphFacts(Classified):
    """A classified graph with its exact gamma and rho and optimal
    witnesses."""

    gamma: int
    rho: int
    dominating: tuple[int, ...]
    packing: tuple[int, ...]


def _classify(g: Graph, ordering: ConvexOrdering | None
              ) -> tuple[frozenset[str], Triangulation | None]:
    """The families of g, and its triangulation when g is a mop."""
    fams = {"any"}
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
    return _classify(g, ordering)[0]


def _classified(item: ScanItem, g: Graph, budget: int) -> Classified:
    families, triangulation = _classify(g, item.ordering)
    return Classified(item.graph_id, item.family, g, item.ordering, families,
                      triangulation, budget, g.max_degree())


def _solved(c: Classified) -> GraphFacts:
    """Solve gamma, then rho; a solve that exhausts the budget raises
    BudgetExceeded."""
    gamma = domination_number(c.graph, c.budget)
    rho = packing_number(c.graph, c.budget)
    return GraphFacts(c.graph_id, c.family, c.graph, c.ordering, c.families,
                      c.triangulation, c.budget, c.delta, gamma.value,
                      rho.value, gamma.witness, rho.witness)


def graph_facts(item: ScanItem, g: Graph, budget: int) -> GraphFacts:
    """Classify g (the decoded item) and solve gamma, then rho; a solve
    that exhausts the budget raises BudgetExceeded."""
    return _solved(_classified(item, g, budget))


@dataclass(frozen=True)
class Predicate:
    """A scan check: the table row `bound`, claimed as `kind` for every
    graph that `applies` admits and that the row is claimed for."""

    name: str
    kind: str  # "theorem" | "conjecture"
    applies: Callable[[Classified], bool]
    bound: bounds.Bound

    @property
    def row(self) -> bounds.Row:
        return self.name, self.kind, self.bound

    def covers(self, c: Classified) -> bool:
        return self.bound.claimed(c.graph.n, c.delta) and self.applies(c)


def _always(c: Classified) -> bool:
    return True


def _in(family: str) -> Callable[[Classified], bool]:
    return lambda c: family in c.families


PREDICATES: dict[str, Predicate] = {
    p.name: p
    for p in [
        Predicate("rho-le-gamma", "theorem", _always, bounds.RHO_LE_GAMMA),
        Predicate("gamma-le-delta-rho", "theorem", _always,
                  bounds.GAMMA_LE_DELTA_RHO),
        Predicate("tree-gamma-eq-rho", "theorem", _in("tree"),
                  bounds.GAMMA_EQ_RHO),
        Predicate("gamma-eq-rho", "conjecture", _always, bounds.GAMMA_EQ_RHO),
        Predicate("subcubic-gamma-le-2rho-plus-1", "conjecture",
                  lambda c: c.delta <= 3, bounds.GAMMA_LE_2RHO_PLUS_1),
        Predicate("gamma-le-delta-minus-1-rho-plus-1", "conjecture", _always,
                  bounds.GAMMA_LE_DELTA_MINUS_1_RHO_PLUS_1),
        Predicate("gamma-le-relaxed-delta", "conjecture", _always,
                  bounds.GAMMA_LE_RELAXED_DELTA),
        Predicate("bicubic-gamma-le-5n-14", "theorem", _in("bicubic"),
                  bounds.GAMMA_LE_5N_14),
        Predicate("bicubic-rho-ge-7n-48", "theorem", _in("bicubic"),
                  bounds.RHO_GE_7N_48),
        Predicate("bicubic-49gamma-le-120rho", "theorem", _in("bicubic"),
                  bounds.GAMMA_LE_120_49_RHO),
        Predicate("mop-gamma-le-3rho", "theorem", _in("mop"),
                  bounds.GAMMA_LE_3RHO),
        Predicate("mop-4gamma-le-9rho-plus-t", "theorem", _in("mop"),
                  bounds.GAMMA_LE_9RHO_PLUS_T_OVER_4),
        Predicate("mop-clique-gamma-eq-rho", "theorem", _in("mop"),
                  bounds.CLIQUE_GAMMA_EQ_RHO),
        Predicate("mop-gamma-le-2rho", "conjecture", _in("mop"),
                  bounds.GAMMA_LE_2RHO),
        Predicate("biconvex-gamma-le-2rho", "theorem", _in("biconvex"),
                  bounds.GAMMA_LE_2RHO),
    ]
}

# gamma-eq-rho is false in general; it exists to exercise the
# counterexample path on demand, so scans do not run it by default
DEFAULT_PREDICATES = tuple(
    name for name in sorted(PREDICATES) if name != "gamma-eq-rho"
)


def evaluate_predicates(item: ScanItem, facts: GraphFacts,
                        names: Sequence[str]
                        ) -> tuple[list[ScanRecord], list[dict]]:
    """Records of the named predicates that apply to the item, from
    `bounds.bound_records`, and a counterexample for each conjecture that
    fails.  The extras are found on demand, each at most once; a row whose
    extra runs out of budget yields an inconclusive record."""
    g = facts.graph
    clique = functools.cache(
        lambda: clique_graph_numbers(facts.triangulation, facts.budget))
    rows = [PREDICATES[name].row for name in names
            if PREDICATES[name].applies(facts)]
    records = bounds.bound_records(
        rows, item.graph_id, item.family, g.n, facts.gamma, facts.rho,
        delta=facts.delta, t=lambda: low_degree_count(g),
        cg_gamma=lambda: clique()[0].value, cg_rho=lambda: clique()[1].value)
    o = item.ordering
    counterexamples = [{
        "graph_id": item.graph_id,
        "family": item.family,
        "predicate": r.check,
        "graph6": item.graph6,
        "gamma": facts.gamma,
        "rho": facts.rho,
        "bound": r.bound,
        "dominating": list(facts.dominating),
        "packing": list(facts.packing),
        "x_order": list(o.x_order) if o else None,
        "y_order": list(o.y_order) if o else None,
    } for r in records if r.holds is False and r.kind == "conjecture"]
    return records, counterexamples


def _error_record(item: ScanItem, g: Graph, exc: Exception) -> ScanRecord:
    return ScanRecord(graph_id=item.graph_id, family=item.family, n=g.n,
                      check="scan-error", kind="error", holds=None,
                      details={"error": type(exc).__name__,
                               "message": str(exc)})


def _predicate_worker(
    args: tuple[ScanItem, tuple[str, ...], int],
) -> tuple[list[ScanRecord], list[dict]]:
    item, names, budget = args
    g = decode_graph6(item.graph6)  # written by make_item, so it decodes
    try:
        known = _classified(item, g, budget)
        try:
            facts = _solved(known)
        except BudgetExceeded as exc:
            rows = [PREDICATES[name].row for name in names
                    if PREDICATES[name].covers(known)]
            return bounds.inconclusive_records(
                rows, item.graph_id, item.family, g.n, exc), []
        return evaluate_predicates(item, facts, names)
    except Exception as exc:  # one failing item must not sink the scan
        traceback.print_exc()  # the record keeps only the type and message
        return [_error_record(item, g, exc)], []


def run_scan(items: Sequence[ScanItem],
             predicates: Sequence[str] = DEFAULT_PREDICATES,
             budget: int = DEFAULT_BUDGET,
             jobs: int = 1) -> tuple[list[ScanRecord], list[dict]]:
    """Evaluate the named predicates on every item.  Returns the records
    (submission order) and the conjecture counterexamples found."""
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
    a `still_violates` flag."""
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
        item = ScanItem(ce["graph_id"], ce["family"], ce["graph6"], ordering)
        facts = graph_facts(item, decode_graph6(item.graph6), budget)
        records, _ = evaluate_predicates(item, facts, [ce["predicate"]])
        out = dict(ce)
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
    item = make_item(graph_id, family, g, ordering)
    facts = graph_facts(item, g, budget)
    records, _ = evaluate_predicates(item, facts, DEFAULT_PREDICATES)
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


def _exp_records_tight(item: ScanItem, g: Graph, budget: int,
                       k: int) -> list[ScanRecord]:
    gamma = domination_number(g, budget).value
    rho = packing_number(g, budget).value
    return bounds.bound_records(_TIGHT_RECORDS, item.graph_id, item.family,
                                g.n, gamma, rho, k=k)


def budget_record(graph_id: str, family: str, n: int,
                  exc: BudgetExceeded) -> ScanRecord:
    """The one info record that stands for a graph whose solve ran out of
    budget in an experiment or a certify bundle."""
    return ScanRecord(graph_id=graph_id, family=family, n=n,
                      check="solver-budget", kind="info", holds=None,
                      details={"quantity": exc.quantity,
                               "range": [exc.lower, exc.upper]})


def _experiment_worker(args: tuple[str, ScanItem, int, dict]) -> list[ScanRecord]:
    """The records of one job: the tight family's exact values, or the
    class's `CERTIFY` records, which for bicubic-small gain the 2rho
    conjecture under the item's own family."""
    kind, item, budget, params = args
    g = decode_graph6(item.graph6)
    try:
        if kind == "tight":
            return _exp_records_tight(item, g, budget, params["k"])
        _, records = CERTIFY[kind](item.graph_id, g, item.ordering, budget)
    except BudgetExceeded as exc:
        return [budget_record(item.graph_id, item.family, g.n, exc)]
    if kind == "bicubic":
        # every class record carries the exact values
        records += bounds.bound_records(
            [("gamma-le-2rho", "conjecture", bounds.GAMMA_LE_2RHO)],
            item.graph_id, item.family, g.n, records[-1].gamma,
            records[-1].rho)
    return records


def _experiment_jobs(name: str, corpus: Sequence[Graph] | None,
                     budget: int) -> list[tuple[str, ScanItem, int, dict]]:
    jobs: list[tuple[str, ScanItem, int, dict]] = []
    if name == "bicubic-small":
        for n in (6, 8, 10, 12):
            for i, g in enumerate(enumerate_bicubic(n)):
                item = make_item(f"bicubic-{n}-{i}", "bicubic-exhaustive", g)
                jobs.append(("bicubic", item, budget, {}))
        for i, g in enumerate(corpus or ()):
            item = make_item(f"bicubic-corpus-{i}", "bicubic-corpus", g)
            jobs.append(("bicubic", item, budget, {}))
    elif name == "tight-family":
        for k in range(1, 7):
            g, ordering = gen_tight_family(k)
            item = make_item(f"tight-{k}", "biconvex-tight", g, ordering)
            jobs.append(("tight", item, budget, {"k": k}))
    elif name == "mop-theorem4":
        for s in range(200):
            n = 4 + s % 15
            item = make_item(f"mop-{s}", "mop", gen_random_mop(n, s))
            jobs.append(("mop", item, budget, {}))
    elif name == "biconvex-theorem12":
        for s in range(200):
            nx = 2 + s % 9
            ny = 2 + (s // 9) % 9
            g, ordering = gen_random_biconvex(nx, ny, s)
            item = make_item(f"biconvex-{s}", "biconvex", g, ordering)
            jobs.append(("biconvex", item, budget, {}))
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
