"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every check is exact (integer arithmetic, tolerance zero).  The two stated
runtime ceilings are asserted with wall-clock measurements.
"""

import contextlib
import io
import json
import os
import time

from gammarho import cli
from gammarho.biconvex import (
    cb_decompose,
    construct_dominating,
    construct_packing,
    trim_core,
)
from gammarho.bicubic import side_packing, validate_bicubic
from gammarho.formats import decode_graph6, encode_graph6
from gammarho.generators import (
    enumerate_bicubic,
    gen_cycle,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_tight_family,
)
from gammarho.graphs import is_dominating, is_packing
from gammarho.harness import (
    DEFAULT_PREDICATES,
    default_scan_items,
    run_scan,
    verify_counterexamples,
)
from gammarho.outerplanar import (
    build_clique_graph,
    lift_packing,
    low_degree_count,
    recognize_mop,
    tokunaga_color,
    verify_tokunaga,
)
from gammarho.solvers import (
    brute_gamma,
    brute_rho,
    domination_number,
    packing_number,
)


# Collected lines are echoed after the run by the terminal-summary hook in
# conftest.py, so they survive pytest's output capture.
CRITERION_LINES: list[str] = []


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        line = f"criterion {num}: FAIL - {description}"
        print(line)
        CRITERION_LINES.append(line)
        raise
    line = f"criterion {num}: PASS - {description}"
    print(line)
    CRITERION_LINES.append(line)


def bicubic_corpus_16_24():
    return [gen_random_bicubic(16 + 2 * (s % 5), s) for s in range(100)]


def mop_corpus():
    return [gen_random_mop(4 + s % 15, s) for s in range(200)]


def biconvex_corpus():
    return [gen_random_biconvex(2 + s % 9, 2 + (s // 9) % 9, s)
            for s in range(200)]


def test_criterion_1_oracle_equivalence():
    with criterion(1, "500 random connected graphs n<=12: solver == brute "
                      "force for gamma and rho, single thread, < 5 min"):
        start = time.monotonic()
        for seed in range(500):
            g = gen_random_connected(4 + seed % 9, seed)
            assert domination_number(g).value == brute_gamma(g)
            assert packing_number(g).value == brute_rho(g)
        assert time.monotonic() - start < 300


def test_criterion_2_trees_gamma_equals_rho():
    # The solvers certify trees by |D| == |P|, so gamma == rho alone would
    # only restate that; the witnesses and, for n <= 20, brute force check
    # the values independently.
    with criterion(2, "300 random trees n<=40: gamma == rho exactly, witnesses "
                      "valid, brute force agrees for n<=20"):
        for seed in range(300):
            g = gen_random_tree(2 + seed % 39, seed)
            assert g.is_tree()
            gamma = domination_number(g)
            rho = packing_number(g)
            assert gamma.value == rho.value
            assert len(gamma.witness) == gamma.value and is_dominating(g, gamma.witness)
            assert len(rho.witness) == rho.value and is_packing(g, rho.witness)
            if g.n <= 20:
                assert gamma.value == brute_gamma(g)
                assert rho.value == brute_rho(g)


def test_criterion_3_exhaustive_small_bicubic():
    extra = os.environ.get("BICUBIC14_CORPUS")
    note = "with user n=14 corpus" if extra else "no extra corpus supplied"
    with criterion(3, f"exhaustive bicubic n in 6..16: gamma <= 2 rho ({note})"):
        for n in (6, 8, 10, 12, 14, 16):
            graphs = enumerate_bicubic(n)
            assert graphs
            for g in graphs:
                validate_bicubic(g)
                assert domination_number(g).value <= 2 * packing_number(g).value
        if extra:
            with open(extra) as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    g = decode_graph6(line.strip())
                    assert g.n == 14
                    validate_bicubic(g)
                    assert domination_number(g).value <= 2 * packing_number(g).value


def test_criterion_4_bicubic_bounds():
    with criterion(4, "100 random bicubic graphs 16<=n<=24: rho >= 7n/48, "
                      "gamma <= 5n/14, 49 gamma <= 120 rho"):
        for g in bicubic_corpus_16_24():
            gamma = domination_number(g).value
            rho = packing_number(g).value
            assert 48 * rho >= 7 * g.n
            assert 14 * gamma <= 5 * g.n
            assert 49 * gamma <= 120 * rho


def test_criterion_5_side_packing_certificate():
    with criterion(5, "same corpus: side_packing is a packing inside one "
                      "side with 6|P| >= |side|"):
        for g in bicubic_corpus_16_24():
            lab = validate_bicubic(g)
            for side in (lab.side_x, lab.side_y):
                p = side_packing(g, lab, side)
                assert set(p) <= set(side)
                assert is_packing(g, p)
                assert 6 * len(p) >= len(side)


def test_criterion_6_mop_bounds_and_lift():
    with criterion(6, "200 random mops 4<=n<=18: gamma <= min(3 rho, "
                      "(9 rho + t)/4); lifted packing has size rho(clique "
                      "graph); clique graph has gamma == rho"):
        for g in mop_corpus():
            t = recognize_mop(g)
            gamma = domination_number(g).value
            rho = packing_number(g).value
            tc = low_degree_count(g)
            assert gamma <= 3 * rho
            assert 4 * gamma <= 9 * rho + tc
            cg = build_clique_graph(t)
            cg_gamma = domination_number(cg)
            cg_rho = packing_number(cg)
            assert cg_gamma.value == cg_rho.value
            lifted = lift_packing(t, cg_rho.witness)
            assert len(lifted) == cg_rho.value
            assert is_packing(g, lifted)


def test_criterion_7_tokunaga_four_cycles():
    with criterion(7, "same corpus: every edge-sharing triangle pair "
                      "carries all four colors"):
        for g in mop_corpus():
            t = recognize_mop(g)
            assert verify_tokunaga(t, tokunaga_color(t)) == []


def test_criterion_8_biconvex_tightness_and_certificates():
    with criterion(8, "tight family k=1..6 has gamma=2k, rho=k; 200 random "
                      "biconvex graphs: gamma <= 2 rho and certificates "
                      "valid with the claimed size relation to width"):
        for k in range(1, 7):
            g, _ = gen_tight_family(k)
            assert domination_number(g).value == 2 * k
            assert packing_number(g).value == k
        for g, ordering in biconvex_corpus():
            gamma = domination_number(g).value
            rho = packing_number(g).value
            assert gamma <= 2 * rho
            decomp = cb_decompose(g, trim_core(g, ordering))
            k = decomp.width
            pack = construct_packing(g, decomp)
            dom = construct_dominating(g, decomp)
            assert is_packing(g, pack.vertices)
            assert is_dominating(g, dom.vertices)
            assert len(pack.vertices) <= rho
            assert gamma <= len(dom.vertices)
            assert len(dom.vertices) <= 2 * len(pack.vertices)
            if pack.method in ("flank-j1", "tail-xn", "tail-xn-early"):
                assert len(pack.vertices) == k + 1
            elif pack.method == "endpoints":
                assert k == 1 and len(pack.vertices) == 2
            else:
                assert len(pack.vertices) == k
            if dom.method == "tight-2k":
                assert len(dom.vertices) == 2 * k
            elif dom.method == "loose-2k2":
                assert len(dom.vertices) <= 2 * k + 2
            else:
                assert k == 1 and len(dom.vertices) <= 4


def test_criterion_9_scan_harness(tmp_path):
    with criterion(9, "default scan on 4 workers: zero theorem failures, "
                      "< 15 min; injected counterexample exits 2 with a "
                      "re-ingestible dump"):
        start = time.monotonic()
        records, _ = run_scan(default_scan_items(), DEFAULT_PREDICATES, jobs=4)
        assert time.monotonic() - start < 900
        assert records
        assert not any(r.holds is False and r.kind == "theorem" for r in records)
        assert not any(r.holds is False for r in records)

        # inject a known violation of the equality conjecture
        corpus = tmp_path / "c4.g6"
        corpus.write_text(encode_graph6(gen_cycle(4)) + "\n")
        dump = tmp_path / "ces.jsonl"
        code = cli.main(["scan", "--input", str(corpus),
                         "--predicates", "gamma-eq-rho",
                         "--out", str(tmp_path / "report.jsonl"),
                         "--dump", str(dump)])
        assert code == 2
        replayed = verify_counterexamples(dump.read_text().splitlines())
        assert replayed and all(ce["still_violates"] for ce in replayed)
