import contextlib
import io
import json
import sys
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls, json_bundles
from gammarho import bicubic, cli, harness, solvers, triangulation
from gammarho.biconvex import ConvexOrdering, certify_biconvex
from gammarho.formats import (
    decode_graph6,
    decode_sparse6,
    encode_graph6,
    iter_graph6_stream,
    write_edgelist,
    write_graph6_stream,
)
from gammarho.generators import (
    gen_complete,
    gen_cycle,
    gen_path,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_sun,
    petersen,
)
from gammarho.graphs import CertificateError, Graph, bfs_tree
from gammarho.harness import verify_counterexamples
from gammarho.reports import read_report


def write_g6(tmp_path, name, graphs):
    p = tmp_path / name
    p.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    return str(p)


def out_rows(capsys):
    return [json.loads(ln) for ln in capsys.readouterr().out.splitlines()
            if ln.strip()]


def test_compute(tmp_path, capsys):
    path = write_g6(tmp_path, "in.g6", [gen_path(4), gen_cycle(6)])
    assert cli.main(["compute", "--input", path]) == 0
    rows = out_rows(capsys)
    assert [(r["gamma"], r["rho"]) for r in rows] == [(2, 2), (2, 2)]
    assert rows[0]["dominating"] and rows[0]["packing"]


def test_compute_budget_inconclusive(tmp_path, capsys):
    # seed 1 has cycles and needs search; seed 0 is a tree, which the
    # solvers certify without spending any budget
    graphs = [gen_random_biconvex(8, 8, 1)[0], gen_random_biconvex(8, 8, 0)[0]]
    path = write_g6(tmp_path, "in.g6", graphs)
    assert cli.main(["compute", "--input", path, "--budget", "1"]) == 0
    rows = out_rows(capsys)
    assert rows[0]["inconclusive"] is True
    assert "range" in rows[0]
    assert graphs[1].is_tree()
    assert rows[1]["gamma"] == rows[1]["rho"] and rows[1]["nodes"] == 0


def test_compute_answers_a_mop_without_search(tmp_path, capsys):
    # gamma's search ran out on this mop with [23, 26]; the pair solve
    # reads both numbers off the dual-tree walk
    g = gen_random_mop(120, 1)
    path = write_g6(tmp_path, "m.g6", [g])
    assert cli.main(["compute", "--input", path, "--budget", "200000"]) == 0
    (row,) = out_rows(capsys)
    assert "inconclusive" not in row and row["nodes"] == 0
    assert 23 <= row["gamma"] <= 26
    assert len(row["dominating"]) == row["gamma"]
    assert len(row["packing"]) == row["rho"]
    with pytest.raises(solvers.BudgetExceeded) as err:
        solvers.domination_number(g, 200000)
    assert (err.value.lower, err.value.upper) == (23, 26)


def test_compute_deep_cycle_is_inconclusive(tmp_path, capsys):
    # gamma's search on C_3300 answers 1100 levels deep, past the default
    # recursion limit; rho's runs out of budget instead, with bounds
    path = tmp_path / "c.txt"
    path.write_text(write_edgelist(gen_cycle(3300)))
    assert cli.main(["compute", "--input", str(path), "--format", "edgelist",
                     "--budget", "20000"]) == 0
    out, err = capsys.readouterr()
    (row,) = [json.loads(ln) for ln in out.splitlines()]
    assert row["inconclusive"] is True and row["quantity"] == "rho"
    low, high = row["range"]
    assert low <= solvers.cycle_rho(3300) <= high
    assert "Traceback" not in err


def test_certify_tree(tmp_path, capsys):
    path = write_g6(tmp_path, "t.g6", [gen_path(6)])
    assert cli.main(["certify", "--class", "tree", "--input", path]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["gamma"] == bundle["rho"] == 2
    assert any(r["check"] == "tree-gamma-eq-rho" for r in bundle["records"])


def test_certify_tree_rejects_cycle(tmp_path, capsys):
    path = write_g6(tmp_path, "c.g6", [gen_cycle(5)])
    assert cli.main(["certify", "--class", "tree", "--input", path]) == 1


def test_certify_mop(tmp_path, capsys):
    path = write_g6(tmp_path, "m.g6", [gen_sun()])
    assert cli.main(["certify", "--class", "mop", "--input", path]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["triangles"] == [[0, 1, 5], [1, 2, 3], [1, 3, 5], [3, 4, 5]]
    assert bundle["colors"] == [0, 1, 0, 3, 0, 2]
    checks = {r["check"] for r in bundle["records"]}
    assert "gamma-le-3rho" in checks and "tokunaga-4cycle" in checks


def test_certify_mop_builds_and_solves_once(tmp_path, capsys, monkeypatch):
    # one ear clipping per mop feeds one dual, one clique graph and one
    # walk, which also colors and verifies; gamma and rho of the mop come
    # from one pair solve that reads that walk, and those of its clique
    # graph from the same walk, with no search
    counts = count_calls(monkeypatch)
    mops = [gen_random_mop(n, 5) for n in (3, 12, 30)]
    path = write_g6(tmp_path, "m.g6", mops)
    assert cli.main(["certify", "--class", "mop", "--input", path]) == 0
    assert counts == {"recognize_mop": 3, "build_dual": 3,
                      "build_clique_graph": 3, "_walk": 3,
                      "verify_tokunaga": 3, "solve_pair": 3}
    bundles = json_bundles(capsys.readouterr().out)
    assert [len(b["records"]) for b in bundles] == [7, 7, 7]


def test_certify_mop_bad_colors_are_a_certificate_failure(tmp_path, capsys,
                                                          monkeypatch):
    # the colors are verified once, inside tokunaga_color, and a problem
    # there fails the certify run with exit 3
    monkeypatch.setattr(triangulation, "verify_tokunaga",
                        lambda *args: ["edge 0-1 monochromatic"])
    path = write_g6(tmp_path, "m.g6", [gen_random_mop(12, 5)])
    assert cli.main(["certify", "--class", "mop", "--input", path]) == 3
    assert "certificate failure" in capsys.readouterr().err


@pytest.mark.parametrize("cls, g", [("any", petersen()),
                                   ("tree", gen_path(9))])
def test_certify_any_and_tree_solve_once(cls, g, tmp_path, capsys,
                                         monkeypatch):
    # one pair solve, and no one-quantity view; the bundle's witnesses are
    # the ones the records were checked with
    counts = count_calls(monkeypatch, ("solve_pair", "domination_number",
                                       "packing_number"))
    path = write_g6(tmp_path, "g.g6", [g])
    assert cli.main(["certify", "--class", cls, "--input", path]) == 0
    assert counts == {"solve_pair": 1}
    bundle = json.loads(capsys.readouterr().out)
    assert len(bundle["dominating"]) == bundle["gamma"]
    assert len(bundle["packing"]) == bundle["rho"]
    assert all(r["gamma"] == bundle["gamma"] for r in bundle["records"])


def test_compute_certify_any_and_scan_walk_a_mop_component_alike(tmp_path,
                                                                  capsys):
    # a mop beside C_5: compute, certify any and a scan dump all walk the
    # mop component, so all three print the same witnesses
    mop = gen_random_mop(9, 0)
    g = Graph.from_edges(14, list(mop.edges())
                         + [(9 + u, 9 + v) for u, v in gen_cycle(5).edges()])
    path = write_g6(tmp_path, "u.g6", [g])
    assert cli.main(["compute", "--input", path]) == 0
    (row,) = out_rows(capsys)
    assert (row["dominating"], row["packing"]) == ([2, 4, 9, 11], [2, 7, 9])
    assert cli.main(["certify", "--class", "any", "--input", path]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert (bundle["dominating"], bundle["packing"]) == (row["dominating"],
                                                         row["packing"])
    dump = tmp_path / "ces.jsonl"
    assert cli.main(["scan", "--input", path, "--predicates", "gamma-eq-rho",
                     "--out", str(tmp_path / "r.jsonl"),
                     "--dump", str(dump)]) == 2
    (ce,) = map(json.loads, dump.read_text().splitlines())
    assert (ce["dominating"], ce["packing"]) == (row["dominating"],
                                                 row["packing"])


def _biconvex_items(*seeds):
    items = []
    for seed in seeds:
        g, o = gen_random_biconvex(8, 8, seed)
        items.append((g, (o.x_order, o.y_order)))
    return items


@pytest.mark.parametrize("cls, items, answered", [
    # the first graph of each corpus needs more than 10 search nodes
    ("bicubic", [(gen_random_bicubic(30, 1), None),
                 (gen_random_bicubic(20, 2), None)], [False, False]),
    # mops never search, so a budget of 10 still answers them
    ("mop", [(gen_random_mop(30, 1), None), (gen_random_mop(5, 1), None)],
     [True, True]),
    ("biconvex", _biconvex_items(1, 0), [False, True]),
    ("any", [(gen_random_connected(12, 3), None), (gen_path(5), None)],
     [False, True]),
    ("tree", [(gen_path(40), None)], [True]),
])
def test_certify_budget_exhaustion_is_a_record(cls, items, answered,
                                               tmp_path, capsys):
    path = tmp_path / "in.g6"
    with open(path, "w") as fh:
        write_graph6_stream(items, fh)
    assert cli.main(["certify", "--class", cls, "--budget", "10",
                     "--input", str(path)]) == 0
    bundles = json_bundles(capsys.readouterr().out)
    assert len(bundles) == len(items)
    for idx, (bundle, (g, _), done) in enumerate(zip(bundles, items, answered)):
        gid = f"{cls}-{idx}"
        assert (bundle["graph_id"], bundle["n"], bundle["m"]) == (gid, g.n, g.m)
        if done:
            assert all(r["holds"] is not None for r in bundle["records"])
            continue
        assert sorted(bundle) == ["graph_id", "m", "n", "records"]
        (rec,) = bundle["records"]
        assert rec["check"] == "solver-budget" and rec["kind"] == "info"
        assert rec["holds"] is None and rec["family"] == cls
        assert rec["graph_id"] == gid and rec["n"] == g.n
        assert sorted(rec["details"]) == ["quantity", "range"]
        assert rec["details"]["quantity"] in ("gamma", "rho")


def test_certify_large_mop_without_search(tmp_path, capsys):
    # n = 2000 is far beyond search; the dual-tree walk answers it
    path = write_g6(tmp_path, "m.g6", [gen_random_mop(2000, 1)])
    assert cli.main(["certify", "--class", "mop", "--input", path]) == 0
    bundle = json.loads(capsys.readouterr().out)
    records = bundle["records"]
    assert [r["check"] for r in records] == [
        "clique-graph-gamma-eq-rho", "rho-ge-clique-rho", "gamma-le-3rho",
        "gamma-le-9rho-plus-t-over-4", "gamma-le-2rho", "tokunaga-4cycle",
        "lift-packing-size"]
    assert all(r["holds"] is True for r in records)
    assert len(bundle["clique_dominating"]) == records[0]["details"]["cg_rho"]


def test_certify_mop_broken_walk_is_a_certificate_error(tmp_path, capsys,
                                                        monkeypatch):
    # a walk whose dominating set fails its check is a bug, not a hard
    # input: no search stands in for it, the bundle gets the error record
    monkeypatch.setattr(triangulation, "_walk_dp", lambda *args: (0, ()))
    path = write_g6(tmp_path, "m.g6", [gen_random_mop(30, 1)])
    assert cli.main(["certify", "--class", "mop", "--budget", "10",
                     "--input", path]) == 3
    bundle = json.loads(capsys.readouterr().out)
    assert sorted(bundle) == ["graph_id", "m", "n", "records"]
    (rec,) = bundle["records"]
    assert (rec["check"], rec["kind"], rec["holds"]) == ("scan-error",
                                                        "error", None)
    assert rec["details"]["error"] == "CertificateError"


def test_compute_broken_tree_certificate_is_exit_3(tmp_path, capsys,
                                                   monkeypatch):
    # the forward BFS order visits against depth, so on a path the pair
    # fails its packing check; compute stops with exit 3 instead of
    # searching the forest
    def forward(sub):
        order, top = bfs_tree(sub.adj, 0)
        top[0] = 0
        return solvers.host_tree_certificate(sub, top, order)

    monkeypatch.setattr(solvers, "_tree_certificate", forward)
    path = write_g6(tmp_path, "f.g6", [gen_path(5)])
    assert cli.main(["compute", "--input", path]) == 3
    assert capsys.readouterr().out == ""


def test_certify_biconvex(tmp_path, capsys):
    g, ordering = gen_random_biconvex(5, 5, 3)
    path = tmp_path / "b.g6"
    path.write_text(
        encode_graph6(g) + "\n"
        + "#xorder " + " ".join(map(str, ordering.x_order)) + "\n"
        + "#yorder " + " ".join(map(str, ordering.y_order)) + "\n")
    assert cli.main(["certify", "--class", "biconvex",
                     "--input", str(path)]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["packing"]["vertices"]
    assert bundle["dominating"]["method"]
    assert len(bundle["dominating"]["vertices"]) <= 2 * len(bundle["packing"]["vertices"])


@pytest.mark.xfail(strict=True, reason="construct_packing rejects a right "
                   "flank vertex whose neighbors lie in an earlier block")
def test_certify_biconvex_tail_in_an_earlier_block(tmp_path, capsys):
    # a tree with two blocks, X=[0] Y=[3, 4] and X=[1] Y=[5]; the trimmed
    # right flank x2 sees only y4, in block 1.  decompose accepts it, and
    # compute gives gamma = rho = 3
    path = tmp_path / "tail.txt"
    path.write_text("6 5\nxorder 0 1 2\nyorder 3 4 5\n"
                    "0 3\n0 4\n1 4\n1 5\n2 4\n")
    assert cli.main(["certify", "--class", "biconvex", "--format",
                     "edgelist", "--input", str(path)]) == 0


def test_certify_biconvex_single_vertex(tmp_path, capsys):
    # trim_core needs two nonempty sides; the bundle carries the same n = 1
    # records as certify_biconvex
    path = tmp_path / "k1.txt"
    path.write_text("1 0\nxorder 0\nyorder\n")
    assert cli.main(["certify", "--class", "biconvex", "--format",
                     "edgelist", "--input", str(path)]) == 0
    bundle = json.loads(capsys.readouterr().out)
    _, expected = certify_biconvex(Graph.from_edges(1, []),
                                   ConvexOrdering((0,), ()), "biconvex-0")
    assert bundle["records"] == [r.as_dict() for r in expected]
    assert bundle["width"] == 0
    assert bundle["packing"] == {"vertices": [0], "method": "singleton"}
    assert bundle["dominating"] == {"vertices": [0], "method": "singleton"}


def test_certify_biconvex_needs_orderings(tmp_path, capsys):
    path = write_g6(tmp_path, "b.g6", [gen_path(4)])
    assert cli.main(["certify", "--class", "biconvex", "--input", path]) == 1


def test_decompose_mop(tmp_path, capsys):
    path = write_g6(tmp_path, "m.g6", [gen_sun()])
    assert cli.main(["decompose", "--class", "mop", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "triangle 0: [0, 1, 5]" in out
    assert "dual edge" in out and "colors:" in out


def test_decompose_prints_no_header_for_a_graph_outside_the_class(tmp_path,
                                                                 capsys):
    # K4 is no mop: the run stops with exit 1, and stdout holds graph 0's
    # dump alone, with no header for graph 1
    mop = write_g6(tmp_path, "m.g6", [gen_sun()])
    assert cli.main(["decompose", "--class", "mop", "--input", mop]) == 0
    alone = capsys.readouterr().out
    both = write_g6(tmp_path, "mk.g6", [gen_sun(), gen_complete(4)])
    assert cli.main(["decompose", "--class", "mop", "--input", both]) == 1
    assert capsys.readouterr().out == alone


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.g6"
    assert cli.main(["generate", "--class", "biconvex", "--n", "5", "4",
                     "--seed", "7", "--samples", "3",
                     "--out", str(out)]) == 0
    loaded = list(iter_graph6_stream(out.read_text().splitlines()))
    assert len(loaded) == 3
    for g, orderings in loaded:
        assert g.n == 9
        assert orderings is not None and len(orderings[0]) == 5
    # deterministic across runs
    assert cli.main(["generate", "--class", "biconvex", "--n", "5", "4",
                     "--seed", "7", "--samples", "3",
                     "--out", str(tmp_path / "gen2.g6")]) == 0
    assert out.read_text() == (tmp_path / "gen2.g6").read_text()


def test_scan_rejects_a_half_sidecar_pair(tmp_path, capsys):
    # without its #yorder line the graph would be scanned with no
    # ordering, and its biconvex row silently dropped
    out = tmp_path / "gen.g6"
    assert cli.main(["generate", "--class", "biconvex", "--n", "5",
                     "--seed", "2", "--out", str(out)]) == 0
    report = tmp_path / "report.jsonl"
    assert cli.main(["scan", "--input", str(out), "--out", str(report)]) == 0
    records, _ = read_report(report.read_text().splitlines())
    assert [r.check for r in records].count("biconvex-gamma-le-2rho") == 1
    half = tmp_path / "half.g6"
    half.write_text("".join(ln + "\n" for ln in out.read_text().splitlines()
                            if not ln.startswith("#yorder")))
    capsys.readouterr()
    assert cli.main(["scan", "--input", str(half)]) == 1
    assert "#xorder and #yorder" in capsys.readouterr().err


def test_generate_tight(capsys):
    assert cli.main(["generate", "--class", "tight", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    graphs = list(iter_graph6_stream(lines))
    assert len(graphs) == 1 and graphs[0][0].n == 8


def test_generate_large_mop(capsys):
    assert cli.main(["generate", "--class", "mop", "--n", "43"]) == 0
    graphs = list(iter_graph6_stream(capsys.readouterr().out.splitlines()))
    assert len(graphs) == 1 and graphs[0][0].n == 43


def test_scan_clean_corpus(tmp_path, capsys):
    path = write_g6(tmp_path, "in.g6", [gen_path(5), gen_cycle(6), gen_sun()])
    report = tmp_path / "report.jsonl"
    assert cli.main(["scan", "--input", path, "--out", str(report)]) == 0
    records, summary = read_report(report.read_text().splitlines())
    assert records and summary is not None
    assert all(r.holds in (True, None) for r in records)


def test_scan_class_filters_builtin_corpus(tmp_path):
    report = tmp_path / "report.jsonl"
    assert cli.main(["scan", "--class", "tree", "--out", str(report)]) == 0
    records, summary = read_report(report.read_text().splitlines())
    assert set(summary["families"]) == {"tree"}
    assert all(r.family == "tree" for r in records)


def test_scan_counterexample_exit_and_dump(tmp_path):
    path = write_g6(tmp_path, "c4.g6", [gen_cycle(4)])
    dump = tmp_path / "ces.jsonl"
    report = tmp_path / "report.jsonl"
    code = cli.main(["scan", "--input", path,
                     "--predicates", "gamma-eq-rho,rho-le-gamma",
                     "--out", str(report), "--dump", str(dump)])
    assert code == 2
    replayed = verify_counterexamples(dump.read_text().splitlines())
    assert len(replayed) == 1
    assert replayed[0]["still_violates"] is True
    assert replayed[0]["predicate"] == "gamma-eq-rho"


def test_scan_honours_predicate_list(tmp_path, capsys):
    path = write_g6(tmp_path, "c4.g6", [gen_cycle(4)])
    # same graph, equality conjecture not requested: clean exit
    assert cli.main(["scan", "--input", path,
                     "--predicates", "rho-le-gamma"]) == 0


@pytest.mark.parametrize("names", [",", ""])
def test_scan_with_no_predicate_is_a_usage_error(names, tmp_path, capsys):
    # neither names a predicate; a scan that checks nothing must not pass
    path = write_g6(tmp_path, "c4.g6", [gen_cycle(4)])
    report = tmp_path / "report.jsonl"
    assert cli.main(["scan", "--input", path, "--predicates", names,
                     "--out", str(report)]) == 1
    assert "no predicate" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv", [["scan"], ["certify", "--class", "any"]])
def test_edgeless_graph_claims_no_delta_row(argv, tmp_path, capsys):
    # B? is three isolated vertices: gamma = rho = 3 and delta = 0
    path = tmp_path / "e3.g6"
    path.write_text("B?\n")
    assert cli.main(argv + ["--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "delta" not in out and '"holds":false' not in out.replace(" ", "")


def test_reproduce_tight_family(tmp_path):
    report = tmp_path / "tight.jsonl"
    assert cli.main(["reproduce", "--name", "tight-family",
                     "--out", str(report)]) == 0
    records, _ = read_report(report.read_text().splitlines())
    assert len(records) == 18
    assert all(r.holds for r in records)


def test_bad_graph6_input_is_exit_1(tmp_path, capsys):
    p = tmp_path / "junk.g6"
    p.write_text("this is not graph6\n")
    assert cli.main(["compute", "--input", p.as_posix()]) == 1


def test_certify_bicubic_rejects_the_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.g6"
    p.write_text("?\n")
    assert cli.main(["certify", "--class", "bicubic",
                     "--input", p.as_posix()]) == 1
    assert "graph has no vertices" in capsys.readouterr().err


def test_missing_file_is_exit_1(capsys):
    assert cli.main(["compute", "--input", "/no/such/file.g6"]) == 1


def test_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["generate", "--class", "tight"])  # --n missing
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err2:
        cli.main(["no-such-command"])
    assert err2.value.code == 1


def test_certificate_error_is_exit_3(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise CertificateError("forced")
    monkeypatch.setattr(cli, "cmd_compute", boom)
    path = write_g6(tmp_path, "in.g6", [gen_path(3)])
    assert cli.main(["compute", "--input", path]) == 3


def _raise_on_second(monkeypatch, cls, exc):
    """Patch the CERTIFY entry of `cls` to raise `exc` for the graph ids
    ending in -1 and to certify every other graph as before."""
    real = harness.CERTIFY[cls]

    def certify(graph_id, g, ordering, budget):
        if graph_id.endswith("-1"):
            raise exc
        return real(graph_id, g, ordering, budget)
    monkeypatch.setitem(harness.CERTIFY, cls, certify)


def test_certify_records_an_error_and_goes_on(tmp_path, capsys, monkeypatch):
    # an exception from a class's certificates that is neither a budget
    # nor a bad input is the scan's error record; the run goes on, exit 3
    graphs = [gen_random_mop(8, s) for s in range(3)]
    path = write_g6(tmp_path, "in.g6", graphs)
    assert cli.main(["certify", "--class", "mop", "--input", path]) == 0
    clean = json_bundles(capsys.readouterr().out)
    _raise_on_second(monkeypatch, "mop", RuntimeError("forced"))
    assert cli.main(["certify", "--class", "mop", "--input", path]) == 3
    out, err = capsys.readouterr()
    bundles = json_bundles(out)
    assert [bundles[0], bundles[2]] == [clean[0], clean[2]]
    assert bundles[1] == {
        "graph_id": "mop-1", "n": 8, "m": 13, "records": [{
            "graph_id": "mop-1", "family": "mop", "n": 8,
            "check": "scan-error", "kind": "error", "holds": None,
            "bound": "", "gamma": None, "rho": None,
            "details": {"error": "RuntimeError", "message": "forced"}}]}
    assert "RuntimeError: forced" in err


@pytest.mark.parametrize("jobs", [1, 2])
def test_reproduce_records_an_error_and_goes_on(tmp_path, capsys,
                                               monkeypatch, jobs):
    # the pool forks, so the workers see the patched table
    out = tmp_path / "clean.jsonl"
    argv = ["reproduce", "--name", "mop-theorem4", "--jobs", str(jobs)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    clean, _ = read_report(out.read_text().splitlines())
    _raise_on_second(monkeypatch, "mop", RuntimeError("forced"))
    assert cli.main(argv + ["--out", str(out)]) == 3
    records, _ = read_report(out.read_text().splitlines())
    assert [r for r in records if r.graph_id != "mop-1"] == [
        r for r in clean if r.graph_id != "mop-1"]
    (err,) = [r for r in records if r.graph_id == "mop-1"]
    assert (err.check, err.kind, err.family, err.n, err.details) == (
        "scan-error", "error", "mop", 5,
        {"error": "RuntimeError", "message": "forced"})
    assert records.index(err) == [r.graph_id for r in clean].index("mop-1")


def test_certify_and_reproduce_keep_exit_1_for_a_value_error(
        tmp_path, capsys, monkeypatch):
    # a ValueError says the input is outside the class: message, exit 1
    _raise_on_second(monkeypatch, "mop", ValueError("not in the class"))
    path = write_g6(tmp_path, "in.g6", [gen_random_mop(8, s) for s in range(3)])
    assert cli.main(["certify", "--class", "mop", "--input", path]) == 1
    assert "gammarho: not in the class" in capsys.readouterr().err
    assert cli.main(["reproduce", "--name", "mop-theorem4"]) == 1
    assert "gammarho: not in the class" in capsys.readouterr().err


def test_reproduce_corpus_reads_what_certify_reads(tmp_path, capsys):
    # a comment line and a sparse6 line are valid `certify --input`
    # corpus lines, and `reproduce --corpus` reads the file the same way
    s6 = ":QhCEFbDE_CG`AB_@G_@FbFGaCDaDE"
    assert decode_sparse6(s6) == gen_random_bicubic(18, 2)
    path = tmp_path / "corpus.g6"
    path.write_text("# two bicubic graphs\n"
                    + encode_graph6(gen_random_bicubic(16, 1)) + "\n"
                    + s6 + "\n")
    assert cli.main(["certify", "--class", "bicubic",
                     "--input", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["reproduce", "--name", "bicubic-small",
                     "--corpus", str(path)]) == 0
    records, _ = read_report(capsys.readouterr().out.splitlines())
    corpus = {r.graph_id: r.n for r in records
              if r.graph_id.startswith("bicubic-corpus-")}
    assert corpus == {"bicubic-corpus-0": 16, "bicubic-corpus-1": 18}


def test_reproduce_corpus_needs_bicubic_small(tmp_path, capsys):
    # only bicubic-small takes a corpus; elsewhere it would be ignored
    path = write_g6(tmp_path, "k4.g6", [gen_complete(4)])
    assert cli.main(["reproduce", "--name", "tight-family",
                     "--corpus", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--corpus applies to --name bicubic-small only" in captured.err


def test_bicubic_graphs_are_validated_once(tmp_path, capsys, monkeypatch):
    # the labeling from the one validation is handed to the certificates
    seen = Counter()
    original = bicubic.validate_bicubic

    def counting(g):
        seen[encode_graph6(g)] += 1
        return original(g)

    monkeypatch.setattr(bicubic, "validate_bicubic", counting)
    graphs = [gen_random_bicubic(16, 1), gen_random_bicubic(20, 2)]
    path = write_g6(tmp_path, "b.g6", graphs)
    assert cli.main(["certify", "--class", "bicubic", "--input", path]) == 0
    assert sorted(seen.values()) == [1, 1]
    seen.clear()
    assert cli.main(["reproduce", "--name", "bicubic-small",
                     "--corpus", path]) == 0
    jobs = harness._experiment_jobs("bicubic-small", graphs, 1)
    assert len(seen) == len(jobs) and set(seen.values()) == {1}


@pytest.mark.parametrize("name, cls", [("bicubic-small", "bicubic"),
                                       ("mop-theorem4", "mop"),
                                       ("biconvex-theorem12", "biconvex")])
def test_certify_and_reproduce_agree(name, cls):
    # a graph's certify bundle carries the records its experiment reports,
    # apart from the graph id and bicubic-small's 2rho conjecture record
    corpus = [gen_random_bicubic(16, 1)] if cls == "bicubic" else None
    jobs = harness._experiment_jobs(name, corpus, solvers.DEFAULT_BUDGET)
    for i, job in enumerate(jobs[::7] + jobs[-1:]):
        kind, item, budget = job
        reproduced = [r.as_dict() for r in harness._experiment_worker(job)]
        if cls == "bicubic":
            assert reproduced.pop()["check"] == "gamma-le-2rho"
        g = decode_graph6(item.graph6)
        bundle, _ = cli._certify_one(i, g, item.ordering, kind, budget)
        certified = bundle["records"]
        assert certified and len(certified) == len(reproduced)
        for c, r in zip(certified, reproduced):
            assert (c.pop("graph_id"), r.pop("graph_id")) == (
                f"{cls}-{i}", item.graph_id)
            assert c == r


@st.composite
def small_graphs(draw):
    """(graph, orderings or None) with n <= 9: any graph, or a tree, mop,
    bicubic or biconvex graph from the seeded generators.  A biconvex
    graph's orderings are kept, shuffled, swapped or dropped."""
    kind = draw(st.sampled_from(("any", "tree", "mop", "bicubic", "biconvex")))
    seed = draw(st.integers(0, 10**6))
    orderings = None
    if kind == "any":
        n = draw(st.integers(0, 9))
        pairs = list(combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    elif kind == "tree":
        g = gen_random_tree(draw(st.integers(1, 9)), seed)
    elif kind == "mop":
        g = gen_random_mop(draw(st.integers(3, 9)), seed)
    elif kind == "bicubic":
        g = gen_random_bicubic(draw(st.sampled_from((6, 8))), seed)
    else:
        nx = draw(st.integers(1, 5))
        g, o = gen_random_biconvex(nx, draw(st.integers(1, 9 - nx)), seed)
        how = draw(st.sampled_from(("keep", "shuffle", "swap", "drop")))
        if how == "keep":
            orderings = (o.x_order, o.y_order)
        elif how == "shuffle":
            orderings = (draw(st.permutations(o.x_order)),
                         draw(st.permutations(o.y_order)))
        elif how == "swap":
            orderings = (o.y_order, o.x_order)
    return g, orderings


def _graph6_text(drawn):
    text = io.StringIO()
    write_graph6_stream([drawn], text)
    return text.getvalue()


def small_graph6_inputs():
    """One graph6 line of a `small_graphs` graph, with its orderings as
    sidecar lines."""
    return small_graphs().map(_graph6_text)


@st.composite
def small_edgelist_inputs(draw):
    """A `small_graphs` graph in the edge-list format, whole or with one
    line (header, order or edge) left out."""
    lines = write_edgelist(*draw(small_graphs())).splitlines()
    if draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "".join(line + "\n" for line in lines)


_COMMANDS = (
    ["compute"],
    *(["certify", "--class", c]
      for c in ("any", "tree", "bicubic", "mop", "biconvex")),
    *(["decompose", "--class", c] for c in ("bicubic", "mop", "biconvex")),
)


def _documented_exit(argv, text):
    # an answer, a record or a message: exit 0, 1, 2 or 3, never an
    # exception out of cli.main; exit 1 always says why on stderr
    err = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, text)
    assert code != 1 or err.getvalue(), (argv, text)


@settings(max_examples=100, deadline=None)
@given(small_graph6_inputs())
def test_cli_ends_every_small_input_with_a_documented_exit_code(text):
    for argv in _COMMANDS:
        _documented_exit(argv + ["--input", "-"], text)


@settings(max_examples=30, deadline=None)
@given(small_graph6_inputs(), small_edgelist_inputs())
def test_scan_reproduce_and_edge_lists_end_with_a_documented_exit_code(
        graph6, edgelist):
    # the same promise for scan's and reproduce's corpora, and for every
    # command that reads the edge-list format
    for argv in (["scan", "--input", "-"],
                 ["reproduce", "--name", "bicubic-small", "--corpus", "-"]):
        _documented_exit(argv, graph6)
    for argv in _COMMANDS + (["scan"],):
        _documented_exit(argv + ["--format", "edgelist", "--input", "-"],
                         edgelist)
