import functools
import importlib.util
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from gammarho import bounds, harness, outerplanar, solvers
from gammarho.biconvex import ConvexOrdering, certify_biconvex
from gammarho.bicubic import certify_bicubic
from gammarho.generators import (
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_sun,
)
from gammarho.formats import decode_graph6
from gammarho.graphs import CertificateError, Graph
from gammarho.outerplanar import certify_mop
from gammarho.harness import (
    DEFAULT_PREDICATES,
    EXPERIMENTS,
    PREDICATES,
    default_scan_items,
    detect_families,
    graph_facts,
    make_item,
    map_items,
    run_experiment,
    run_scan,
    scan_verdict,
    verify_counterexamples,
    write_counterexamples,
)
from gammarho.reports import ScanRecord, read_report, summarize, write_report
from gammarho.solvers import BudgetExceeded
from conftest import count_calls
from test_solvers import mixed_graphs


def test_detect_families():
    assert detect_families(gen_path(4), None) == {"any", "tree", "subcubic"}
    assert detect_families(gen_cycle(6), None) == {"any", "subcubic"}
    # K_{3,3} has 2n-3 edges but no degree-2 ear, so it is not a mop
    assert detect_families(gen_complete_bipartite(3, 3), None) == {
        "any", "bicubic", "subcubic"}
    # the sun's triangle has degree 4
    assert detect_families(gen_sun(), None) == {"any", "mop"}
    g, o = gen_random_biconvex(4, 4, 2)
    fams = detect_families(g, o)
    assert "biconvex" in fams and "any" in fams


def test_empty_graph_is_in_no_class():
    # Delta = 0 <= 3 puts it among the subcubic graphs, which is a degree
    # condition, not a class
    empty = decode_graph6("?")
    assert detect_families(empty, None) == {"any", "subcubic"}
    records, _ = run_scan([make_item("empty", "any", empty)])
    assert not any(r.check.startswith("bicubic-") for r in records)


DELTA_ROWS = {"gamma-le-delta-rho", "gamma-le-delta-minus-1-rho-plus-1",
              "gamma-le-relaxed-delta"}


def test_delta_rows_are_claimed_only_where_delta_is_positive():
    # an edgeless graph has gamma = rho = n and delta = 0, so every delta
    # row's right-hand side falls below n; K2 is the smallest graph they
    # are claimed on
    for n in range(1, 6):
        edgeless = Graph.from_edges(n, [])
        records, ces = run_scan([make_item("e", "any", edgeless)])
        assert not DELTA_ROWS & {r.check for r in records}
        assert scan_verdict(records) == 0 and ces == []
    records, _ = run_scan([make_item("k2", "any", gen_path(2))])
    assert DELTA_ROWS <= {r.check for r in records}
    assert scan_verdict(records) == 0


def test_predicate_table():
    assert "gamma-eq-rho" in PREDICATES
    assert "gamma-eq-rho" not in DEFAULT_PREDICATES
    assert set(DEFAULT_PREDICATES) == set(PREDICATES) - {"gamma-eq-rho"}
    for name, (check, kind, row, family) in PREDICATES.items():
        assert check == name
        assert kind in ("theorem", "conjecture")
        assert isinstance(row, bounds.Bound)
        assert family in ("any", "subcubic", "tree", "bicubic", "mop",
                          "biconvex")


# each scan predicate of a class, and the class record of the same bound
AGREEING = {
    "bicubic": {
        "bicubic-gamma-le-5n-14": "gamma-le-5n-14",
        "bicubic-rho-ge-7n-48": "rho-ge-7n-48",
        "bicubic-49gamma-le-120rho": "gamma-le-120-49-rho",
        "subcubic-gamma-le-2rho-plus-1": "gamma-le-2rho-plus-1",
    },
    "mop": {
        "mop-clique-gamma-eq-rho": "clique-graph-gamma-eq-rho",
        "mop-gamma-le-3rho": "gamma-le-3rho",
        "mop-4gamma-le-9rho-plus-t": "gamma-le-9rho-plus-t-over-4",
        "mop-gamma-le-2rho": "gamma-le-2rho",
    },
    "biconvex": {"biconvex-gamma-le-2rho": "gamma-le-2rho"},
}


def _class_cases(cls):
    """(graph, ordering, class records); the bicubic orders straddle the
    n >= 9 and n >= 16 thresholds."""
    if cls == "bicubic":
        for n in (6, 8, 10, 14, 16, 20):
            g = gen_random_bicubic(n, 50 + n)
            yield g, None, certify_bicubic(g)[1]
    elif cls == "mop":
        for n in (3, 4, 9, 17):
            g = gen_random_mop(n, 60 + n)
            yield g, None, certify_mop(g)[1]
    else:
        for s in range(6):
            g, o = gen_random_biconvex(2 + s, 3 + s % 3, 70 + s)
            yield g, o, certify_biconvex(g, o)[1]


@pytest.mark.parametrize("cls", sorted(AGREEING))
def test_scan_predicates_agree_with_class_records(cls):
    pairs = AGREEING[cls]
    for i, (g, o, class_records) in enumerate(_class_cases(cls)):
        records, _ = run_scan([make_item(f"{cls}-{i}", cls, g, o)],
                              tuple(pairs))
        scanned = {r.check: r for r in records}
        stated = {r.check: r for r in class_records}
        assert set(scanned) == {p for p, c in pairs.items() if c in stated}
        for name, r in scanned.items():
            c = stated[pairs[name]]
            assert (r.kind, r.holds, r.bound, r.gamma, r.rho) == (
                c.kind, c.holds, c.bound, c.gamma, c.rho)
            # the biconvex class record also carries its certificates
            if cls != "biconvex":
                assert r.details == c.details


def test_run_scan_basic():
    items = [make_item("p4", "probe", gen_path(4)),
             make_item("c6", "probe", gen_cycle(6))]
    records, ces = run_scan(items, ("rho-le-gamma", "tree-gamma-eq-rho"))
    assert ces == []
    assert [(r.graph_id, r.check) for r in records] == [
        ("p4", "rho-le-gamma"), ("p4", "tree-gamma-eq-rho"),
        ("c6", "rho-le-gamma")]
    assert all(r.holds for r in records)
    assert scan_verdict(records) == 0


def test_run_scan_rejects_unknown_predicate():
    with pytest.raises(ValueError):
        run_scan([make_item("x", "probe", gen_path(3))], ("no-such",))


def test_run_scan_parallel_matches_serial():
    items = [make_item(f"g{i}", "probe", gen_random_biconvex(4, 4, i)[0])
             for i in range(8)]
    serial, ces1 = run_scan(items, DEFAULT_PREDICATES, jobs=1)
    parallel, ces2 = run_scan(items, DEFAULT_PREDICATES, jobs=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
    assert ces1 == ces2


def test_counterexample_flow():
    # gamma(C4) = 2 > 1 = rho(C4), so the equality conjecture must break
    items = [make_item("c4", "probe", gen_cycle(4))]
    records, ces = run_scan(items, ("gamma-eq-rho",))
    assert scan_verdict(records) == 2
    assert len(ces) == 1
    ce = ces[0]
    assert ce["predicate"] == "gamma-eq-rho"
    assert ce["gamma"] == 2 and ce["rho"] == 1
    assert sorted(ce) == sorted(
        ["graph_id", "family", "predicate", "graph6", "gamma", "rho",
         "bound", "dominating", "packing", "x_order", "y_order"])

    sink = io.StringIO()
    write_counterexamples(ces, sink)
    replayed = verify_counterexamples(sink.getvalue().splitlines())
    assert len(replayed) == 1
    assert replayed[0]["still_violates"] is True


def test_verify_counterexamples_resolves_from_graph6_alone():
    # tamper with the recorded numbers; the replay recomputes them
    items = [make_item("c4", "probe", gen_cycle(4))]
    _, ces = run_scan(items, ("gamma-eq-rho",))
    doctored = dict(ces[0], gamma=1, rho=1)
    out = verify_counterexamples([json.dumps(doctored)])
    assert out[0]["still_violates"] is True


def test_verify_counterexamples_goes_on_after_a_run_out():
    # three mops, which the walk answers without search, around a bicubic
    # graph whose solve runs out at budget 5: that entry gets no verdict
    # but compute's quantity and range, and the replay goes on
    items = [make_item("sun", "probe", gen_sun()),
             make_item("b30", "bicubic", gen_random_bicubic(30, 1)),
             make_item("mop6", "probe", gen_random_mop(6, 4)),
             make_item("mop10", "probe", gen_random_mop(10, 1))]
    _, ces = run_scan(items, ("gamma-eq-rho",))
    assert [ce["graph_id"] for ce in ces] == ["sun", "b30", "mop6", "mop10"]
    sink = io.StringIO()
    write_counterexamples(ces, sink)
    replayed = verify_counterexamples(sink.getvalue().splitlines(), 5)
    assert [out["still_violates"] for out in replayed] == [True, None,
                                                           True, True]
    with pytest.raises(BudgetExceeded) as err:
        solvers.solve_pair(gen_random_bicubic(30, 1), 5)
    assert replayed[1] == dict(ces[1], still_violates=None,
                               quantity=err.value.quantity,
                               range=[err.value.lower, err.value.upper])
    assert (replayed[1]["quantity"], replayed[1]["range"]) == ("rho",
                                                              [4, 7])
    assert all("quantity" not in replayed[i] for i in (0, 2, 3))


def test_run_scan_rejects_an_empty_predicate_list():
    items = [make_item("c4", "probe", gen_cycle(4))]
    with pytest.raises(ValueError, match="no predicate"):
        run_scan(items, ())


def test_scan_verdict_precedence():
    theorem_fail = ScanRecord(graph_id="a", family="f", n=3, check="c",
                              kind="theorem", holds=False)
    conj_fail = ScanRecord(graph_id="a", family="f", n=3, check="c",
                           kind="conjecture", holds=False)
    ok = ScanRecord(graph_id="a", family="f", n=3, check="c",
                    kind="theorem", holds=True)
    unknown = ScanRecord(graph_id="a", family="f", n=3, check="c",
                         kind="theorem", holds=None)
    assert scan_verdict([ok]) == 0
    assert scan_verdict([ok, unknown]) == 0  # inconclusive is not failure
    assert scan_verdict([ok, conj_fail]) == 2
    assert scan_verdict([conj_fail, theorem_fail]) == 3


def test_budget_exhaustion_yields_inconclusive():
    items = [make_item("big", "probe", gen_random_biconvex(8, 8, 1)[0])]
    records, ces = run_scan(items, ("rho-le-gamma",), budget=1)
    assert ces == []
    assert all(r.holds is None for r in records)
    assert records[0].details["reason"] == "node budget exhausted"


def test_default_scan_items_composition():
    items = default_scan_items()
    ids = [it.graph_id for it in items]
    assert len(ids) == len(set(ids))
    families = {}
    for it in items:
        families[it.family] = families.get(it.family, 0) + 1
    assert families["tree"] == 40
    assert families["any"] == 60
    assert families["bicubic"] == 25
    assert families["mop"] == 60
    assert families["biconvex"] == 60
    assert families["named"] == 9
    # biconvex items carry their orderings
    assert all(it.ordering for it in items if it.family == "biconvex")


def test_experiments_registry():
    assert EXPERIMENTS == ("bicubic-small", "tight-family", "mop-theorem4",
                           "biconvex-theorem12")
    with pytest.raises(ValueError):
        run_experiment("no-such-experiment")


def test_tight_family_experiment():
    records = run_experiment("tight-family")
    assert scan_verdict(records) == 0
    checks = {r.check for r in records}
    assert checks == {"tight-gamma-eq-2k", "tight-rho-eq-k",
                      "tight-gamma-eq-2rho"}
    assert len(records) == 18  # six sizes, three records each


def test_report_roundtrip():
    items = [make_item("p5", "probe", gen_path(5))]
    records, _ = run_scan(items, ("rho-le-gamma", "gamma-le-delta-rho"))
    sink = io.StringIO()
    write_report(records, sink)
    back, summary = read_report(sink.getvalue().splitlines())
    assert [r.to_json() for r in back] == [r.to_json() for r in records]
    probe = summary["families"]["probe"]
    assert probe["records"] == len(records)
    assert probe["violations"] == 0 and probe["theorem_failures"] == 0
    assert summarize(records)["families"]["probe"]["records"] == len(records)


def test_map_items_keeps_order():
    items = list(range(37))
    assert map_items(str, items, 1) == [str(x) for x in items]
    assert map_items(str, items, 0) == [str(x) for x in items]
    assert map_items(str, items, 3) == [str(x) for x in items]
    assert map_items(str, [], 2) == []


def test_map_items_starts_no_more_workers_than_items(monkeypatch):
    # a fake pool records its size and maps in this process
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(harness.multiprocessing, "Pool", FakePool)
    assert map_items(str, [7], 8) == ["7"]
    assert map_items(str, [], 8) == []
    assert sizes == []
    assert map_items(str, [1, 2, 3], 8) == ["1", "2", "3"]
    assert map_items(str, list(range(5)), 2) == [str(x) for x in range(5)]
    assert sizes == [3, 2]


def test_every_traced_span_names_a_function_of_the_package():
    # perfbench's tracer looks each (module, function) up by name, so a
    # deleted or renamed function would break every traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for module, fn in spans.SPANS:
        assert callable(getattr(importlib.import_module(f"gammarho.{module}"),
                                fn, None)), (module, fn)


@pytest.mark.parametrize("jobs", [2, 3])
def test_default_scan_is_the_same_on_any_number_of_workers(jobs):
    # hundreds of items: every worker gets several chunks
    items = default_scan_items()
    serial, ces1 = run_scan(items, jobs=1)
    parallel, ces2 = run_scan(items, jobs=jobs)
    assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]
    assert ces2 == ces1


def test_experiment_is_the_same_on_two_workers():
    serial = run_experiment("mop-theorem4", jobs=1)
    parallel = run_experiment("mop-theorem4", jobs=2)
    assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]


def _raise_on_c5(gamma, rho, n):
    # C5 is the one 5-vertex item below with rho = 1
    if (n, rho) == (5, 1):
        raise CertificateError("forced failure")
    return True, "", {}


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_isolates_an_item_that_raises(jobs, monkeypatch, capfd):
    # the pool forks, so the workers see the patched predicate table; the
    # row's evaluation raises on the bad graph alone
    monkeypatch.setitem(PREDICATES, "boom",
                        ("boom", "theorem", bounds.Bound(_raise_on_c5),
                         "any"))
    names = ("rho-le-gamma", "boom", "mop-gamma-le-2rho")
    good = [make_item("p5", "probe", gen_path(5)),
            make_item("sun", "probe", gen_sun())]
    bad = make_item("bad", "probe", gen_cycle(5))
    records, ces = run_scan([good[0], bad, good[1]], names, jobs=jobs)
    clean, clean_ces = run_scan(good, names, jobs=jobs)
    assert [r for r in records if r.graph_id != "bad"] == clean
    assert ces == clean_ces
    (err,) = [r for r in records if r.graph_id == "bad"]
    assert (err.kind, err.check, err.holds, err.n) == ("error", "scan-error",
                                                       None, 5)
    assert err.details == {"error": "CertificateError",
                           "message": "forced failure"}
    assert scan_verdict(clean) == 0
    assert scan_verdict(records) == 3
    assert "CertificateError: forced failure" in capfd.readouterr().err


def test_scan_recognizes_each_mop_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g.n)
        return original(g)

    original = outerplanar.recognize_mop
    for mod in (outerplanar, harness):
        monkeypatch.setattr(mod, "recognize_mop", counting)
    items = [make_item(f"mop-{n}", "mop", gen_random_mop(n, n))
             for n in (5, 9, 14)]
    items.append(make_item("conn", "any", gen_random_connected(7, 1)))
    records, _ = run_scan(items)
    assert sorted(calls) == [5, 7, 9, 14]
    clique = [r for r in records if r.check == "mop-clique-gamma-eq-rho"]
    assert len(clique) == 3 and all(r.holds for r in clique)


def test_scan_mop_clique_row_runs_one_pass(monkeypatch):
    # the clique graph's numbers come from the triangulation the
    # classification kept, through the same dual, clique graph and walk as
    # certify, once per mop
    counts = count_calls(monkeypatch, ("recognize_mop", "build_dual",
                                       "build_clique_graph", "_walk",
                                       "tokunaga_color", "verify_tokunaga"))
    items = [make_item(f"mop-{n}", "mop", gen_random_mop(n, n))
             for n in (3, 9, 14)]
    items.append(make_item("conn", "any", gen_random_connected(7, 1)))
    records, _ = run_scan(items)
    assert counts == {"recognize_mop": 4, "build_dual": 3,
                      "build_clique_graph": 3, "_walk": 3,
                      "verify_tokunaga": 3}
    clique = [r for r in records if r.check == "mop-clique-gamma-eq-rho"]
    assert len(clique) == 3 and all(r.holds for r in clique)


def test_scan_broken_clique_certificate_is_an_error_record(monkeypatch):
    # a clique-graph visit against depth breaks the host-tree pair; its
    # check raises instead of handing the clique graph to a search, so the
    # mop gets one error record, the other items keep theirs, and the scan
    # exits 3
    items = [make_item("tree", "tree", gen_random_tree(9, 2)),
             make_item("mop-9", "mop", gen_random_mop(9, 9)),
             make_item("conn", "any", gen_random_connected(7, 1))]
    solved, _ = run_scan(items)
    assert scan_verdict(solved) == 0

    def against_depth(g, top, visit):
        return solvers.host_tree_certificate(g, top, list(visit)[::-1])

    monkeypatch.setattr(outerplanar, "host_tree_certificate", against_depth)
    records, ces = run_scan(items)
    assert ces == [] and scan_verdict(records) == 3
    (error,) = [r for r in records if r.graph_id == "mop-9"]
    assert (error.check, error.kind, error.details["error"]) == (
        "scan-error", "error", "CertificateError")
    assert [r for r in records if r is not error] == [
        r for r in solved if r.graph_id != "mop-9"]


def test_scan_reads_max_degree_once_per_item(monkeypatch):
    calls = []
    original = Graph.max_degree

    def counting(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(Graph, "max_degree", counting)
    items = [make_item("conn", "any", gen_random_connected(7, 1)),
             make_item("b16", "bicubic", gen_random_bicubic(16, 1))]
    run_scan(items)
    assert sorted(calls) == [7, 16]


def test_budget_exhaustion_keeps_the_families():
    # only the predicates that apply to the graph go inconclusive: the
    # same checks as when the solve finishes, never mop-*, tree-* or
    # biconvex-* ones for a bicubic graph
    items = [make_item("b30", "bicubic", gen_random_bicubic(30, 1))]
    starved, _ = run_scan(items, budget=5)
    solved, _ = run_scan(items)
    assert [r.check for r in starved] == [r.check for r in solved]
    detail = {"reason": "node budget exhausted", "quantity": "rho",
              "range": [4, 7]}
    assert [r.as_dict() for r in starved] == [
        {"graph_id": "b30", "family": "bicubic", "n": 30, "check": check,
         "kind": kind, "holds": None, "bound": "", "gamma": None,
         "rho": None, "details": detail}
        for check, kind in (
            ("bicubic-49gamma-le-120rho", "theorem"),
            ("bicubic-gamma-le-5n-14", "theorem"),
            ("bicubic-rho-ge-7n-48", "theorem"),
            ("gamma-le-delta-minus-1-rho-plus-1", "conjecture"),
            ("gamma-le-delta-rho", "theorem"),
            ("gamma-le-relaxed-delta", "conjecture"),
            ("rho-le-gamma", "theorem"),
            ("subcubic-gamma-le-2rho-plus-1", "conjecture"))]


def test_graph_facts_keep_a_budget_run_out():
    g = gen_random_bicubic(30, 1)
    facts = graph_facts("b30", "bicubic", g, None, 5)
    assert isinstance(facts.exhausted, BudgetExceeded)
    assert (facts.exhausted.quantity, facts.exhausted.lower,
            facts.exhausted.upper) == ("rho", 4, 7)
    assert (facts.gamma, facts.rho) == (None, None)
    assert facts.families == {"any", "bicubic", "subcubic"}
    assert facts.delta == 3
    solved = graph_facts("b30", "bicubic", g, None, solvers.DEFAULT_BUDGET)
    assert solved.exhausted is None
    assert (solved.gamma, solved.rho) == (len(solved.dominating),
                                          len(solved.packing))


@settings(max_examples=150, deadline=None)
@given(mixed_graphs())
def test_graph_facts_witnesses_are_the_pair_solves(g):
    # the scan, certify any and compute route every component alike, a
    # mop beside other components included
    facts = graph_facts("g", "any", g, None, solvers.DEFAULT_BUDGET)
    gamma, rho = solvers.solve_pair(g)
    assert (facts.gamma, facts.dominating) == (gamma.value, gamma.witness)
    assert (facts.rho, facts.packing) == (rho.value, rho.witness)


@st.composite
def _class_members(draw):
    """(cls, g, ordering) for each `CERTIFY` class: a bicubic graph with
    n = 16..22, a small connected biconvex graph with its ordering, a
    random mop or tree, or a `mixed_graphs` union for "any"."""
    cls = draw(st.sampled_from(sorted(harness.CERTIFY)))
    seed = draw(st.integers(0, 10 ** 6))
    if cls == "bicubic":
        return cls, gen_random_bicubic(draw(st.sampled_from(
            (16, 18, 20, 22))), seed), None
    if cls == "biconvex":
        g, o = gen_random_biconvex(draw(st.integers(2, 7)),
                                   draw(st.integers(2, 7)), seed)
        assume(g.is_connected())
        return cls, g, o
    if cls == "mop":
        return cls, gen_random_mop(draw(st.integers(3, 20)), seed), None
    if cls == "tree":
        return cls, gen_random_tree(draw(st.integers(1, 20)), seed), None
    return cls, draw(mixed_graphs()), None


@settings(max_examples=150, deadline=None)
@given(_class_members(), st.integers(1, 200))
def test_class_entries_answer_or_give_the_pairs_run_out(member, budget):
    # a CERTIFY class entry either answers with the exact values, or gives
    # the solver-budget record of solve_pair's run-out
    cls, g, o = member
    certs, records = harness.guarded("x", cls, g.n, functools.partial(
        harness.CERTIFY[cls], "x", g, o, budget))
    if certs is None:
        with pytest.raises(BudgetExceeded) as err:
            solvers.solve_pair(g, budget)
        assert [r.as_dict() for r in records] == [
            harness.budget_record("x", cls, g.n, err.value).as_dict()]
    else:
        exact = (solvers.domination_number(g).value,
                 solvers.packing_number(g).value)
        valued = [r for r in records if r.gamma is not None]
        assert valued and all((r.gamma, r.rho) == exact for r in valued)


def test_default_scan_finds_each_graphs_components_once(monkeypatch):
    # classification, validation and both solves all ask a graph for its
    # components; the graph finds them once and keeps them
    found = []
    original = Graph._find_components

    def counting(g):
        found.append(g)  # keeps g alive, so ids stay distinct
        return original(g)

    items = default_scan_items()
    monkeypatch.setattr(Graph, "_find_components", counting)
    run_scan(items)
    assert len({id(g) for g in found}) == len(found) >= len(items)


def test_default_scan_splits_each_graph_once(monkeypatch):
    # one pair solve per graph: each component is induced once, and each
    # forest component gets one certificate for both numbers
    induced, certified = [], []
    original_induced = Graph.induced
    original_certificate = solvers._tree_certificate

    def counting_induced(g, vertices):
        if sys._getframe(1).f_globals["__name__"] == "gammarho.solvers":
            induced.append((g, tuple(vertices)))
        return original_induced(g, vertices)

    def counting_certificate(sub):
        certified.append(sub)
        return original_certificate(sub)

    monkeypatch.setattr(Graph, "induced", counting_induced)
    monkeypatch.setattr(solvers, "_tree_certificate", counting_certificate)
    items = default_scan_items()
    run_scan(items)
    graphs = [decode_graph6(item.graph6) for item in items]
    comps = [(g, comp) for g in graphs for comp in g.components()]
    assert Counter(induced) == Counter(comps)
    trees = [sub for sub in (g.induced(c)[0] for g, c in comps)
             if sub.m == sub.n - 1]
    assert len(trees) == 58 and Counter(certified) == Counter(trees)
