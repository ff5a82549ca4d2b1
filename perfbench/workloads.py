"""The four benchmark workloads.

Each workload has three parts:

* `setup(pkg, seed, workdir)` builds the inputs from the seed: seeded
  generation plus graph6 encoding (and, for certify, writing the corpus
  files).  It is timed as set-up.
* `run(pkg, inputs, tracer)` is one timed pass through gammarho's public
  entry points.  It returns the raw outputs and does no checking.
* `check(pkg, inputs, raw)` validates every answer outside the timed
  region and returns a `PassCheck`.

`pkg` is a namespace of freshly imported gammarho modules; every call goes
through a module attribute so that an installed tracer sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# One node budget for every solve in solve-hard.  At this budget the seed
# code exhausted gamma on random bicubic n=64 for every seed tried and on
# random trees n=120 for 19 of 20, and nearly always finishes the rest.
SOLVE_BUDGET = 100_000

# Expected exhaustive bicubic counts for n = 6, 8, 10, 12 (OEIS A006823).
BICUBIC_COUNTS = {6: 1, 8: 1, 10: 2, 12: 5}


@dataclass
class PassCheck:
    attempted: int = 0
    answered: int = 0
    inconclusive: int = 0
    failed: set = field(default_factory=set)  # graph ids with a failed check
    problems: list = field(default_factory=list)
    digest_rows: list = field(default_factory=list)  # (graph id, ..., holds)
    counts: dict = field(default_factory=dict)  # deterministic, seen untraced

    def fail(self, gid: str, message: str) -> None:
        self.failed.add(gid)
        if len(self.problems) < 20:
            self.problems.append(f"{gid}: {message}")


def _seeds(rng: random.Random):
    while True:
        yield rng.randrange(1 << 31)


def _capture(pkg, argv: list[str]) -> tuple[int | str, str]:
    """Run `gammarho <argv>` in process; return (exit code, stdout).  An
    exception that escapes `main` is returned as its type name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = pkg.cli.main(argv)
        except Exception as exc:  # a traceback is an answer-check failure
            code = type(exc).__name__
    return code, out.getvalue()


def _check_records(records, check: PassCheck, trees: set) -> dict:
    """Common record checks: no failed theorem, rho <= gamma, gamma = rho
    on trees.  Returns graph id -> 'answered' | 'inconclusive'."""
    state: dict[str, str] = {}
    for r in records:
        gid = r.graph_id
        state.setdefault(gid, "answered")
        check.digest_rows.append((gid, r.check, r.gamma, r.rho, r.holds))
        if r.holds is None:
            state[gid] = "inconclusive"
        elif r.holds is False and r.kind == "theorem":
            check.fail(gid, f"theorem record {r.check} failed")
        if r.gamma is not None and r.rho is not None:
            if r.rho > r.gamma:
                check.fail(gid, f"rho {r.rho} > gamma {r.gamma}")
            if gid in trees and r.rho != r.gamma:
                check.fail(gid, f"tree with gamma {r.gamma} != rho {r.rho}")
    return state


def _tally(check: PassCheck, ids, state: dict) -> None:
    for gid in ids:
        check.attempted += 1
        outcome = state.get(gid)
        if outcome is None:
            check.fail(gid, "no record")
        elif outcome == "inconclusive":
            check.inconclusive += 1
        elif gid not in check.failed:
            check.answered += 1


# ----------------------------------------------------------- scan-mixed ----

SCAN_REPEATS = 10  # copies of the default corpus's family and size mix


def scan_setup(pkg, seed: int, workdir: Path):
    """The family mix and size cycle of `default_scan_items()`, drawn
    SCAN_REPEATS times with seeded graphs, plus the named shelf once."""
    gen, make = pkg.generators, pkg.harness.make_item
    seeds = _seeds(random.Random(seed))
    items = []
    for rep in range(SCAN_REPEATS):
        for s in range(40):
            items.append(make(f"tree-{rep}-{s}", "tree",
                              gen.gen_random_tree(5 + (s * 7) % 36, next(seeds))))
        for s in range(60):
            items.append(make(f"conn-{rep}-{s}", "any",
                              gen.gen_random_connected(4 + s % 9, next(seeds))))
        for s in range(25):
            items.append(make(f"bicubic-{rep}-{s}", "bicubic",
                              gen.gen_random_bicubic(16 + 2 * (s % 5), next(seeds))))
        for s in range(60):
            items.append(make(f"mop-{rep}-{s}", "mop",
                              gen.gen_random_mop(4 + s % 15, next(seeds))))
        for s in range(60):
            g, ordering = gen.gen_random_biconvex(2 + s % 9, 2 + (s // 9) % 9,
                                                  next(seeds))
            items.append(make(f"biconvex-{rep}-{s}", "biconvex", g, ordering))
    named = [("petersen", gen.petersen()), ("heawood", gen.heawood()),
             ("cube", gen.generalized_petersen(4, 1)),
             ("moebius-kantor", gen.generalized_petersen(8, 3)),
             ("desargues", gen.generalized_petersen(10, 3)),
             ("sun", gen.gen_sun()), ("rook-4", gen.gen_rook(4)),
             ("c4", gen.gen_cycle(4)), ("c7", gen.gen_cycle(7))]
    items.extend(make(gid, "named", g) for gid, g in named)
    return items


def scan_run(pkg, items, tracer):
    harness = pkg.harness
    records, counterexamples = harness.run_scan(items, harness.DEFAULT_PREDICATES,
                                                jobs=2)
    sink = io.StringIO()
    pkg.reports.write_report(records, sink)
    return records, sink.getvalue()


def scan_check(pkg, items, raw) -> PassCheck:
    records, report = raw
    check = PassCheck()
    trees = {it.graph_id for it in items if it.family == "tree"}
    state = _check_records(records, check, trees)
    _tally(check, [it.graph_id for it in items], state)
    check.counts["reports.bytes"] = len(report)
    return check


# ----------------------------------------------------------- solve-hard ----

def _sparse_connected(pkg, n: int, extra: int, seed: int):
    """A random recursive tree on n vertices plus `extra` random chords."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return pkg.graphs.Graph.from_edges(n, edges)


def hard_setup(pkg, seed: int, workdir: Path):
    """Large graphs, encoded as graph6 the way `gammarho compute` reads
    them.  Random search trees are heavy tailed, so the mix leans on graphs
    whose outcome at SOLVE_BUDGET hardly depends on the seed (bicubic n=48
    solved, n=64 and the n=120 tree exhausted, paths solved); the tree,
    sparse and biconvex sizes sit where the seed code runs out on at most
    about one seed in ten.  P_300 is where rho's cost per node is highest.  That keeps the pass time and the inconclusive
    share steady across seeds."""
    gen = pkg.generators
    seeds = _seeds(random.Random(seed))
    graphs = []
    for n in (48,) * 8 + (64,) * 2:
        graphs.append(("bicubic", gen.gen_random_bicubic(n, next(seeds))))
    graphs.append(("tree", gen.gen_random_tree(60, next(seeds))))
    graphs.append(("sparse", _sparse_connected(pkg, 56, 10, next(seeds))))
    graphs.append(("biconvex", gen.gen_random_biconvex(36, 36, next(seeds))[0]))
    graphs.extend(("path", gen.gen_path(n)) for n in (200, 300))
    # the tree the seed code cannot finish within SOLVE_BUDGET
    graphs.append(("tree", gen.gen_random_tree(120, next(seeds))))
    encode = pkg.formats.encode_graph6
    return [(f"{fam}-{i}", fam, encode(g)) for i, (fam, g) in enumerate(graphs)]


def hard_run(pkg, inputs, tracer):
    solvers = pkg.solvers
    out = []
    for gid, family, line in inputs:
        if tracer is not None:
            tracer.open("bench.item")
        try:
            g = pkg.formats.decode_graph6(line)
            gamma = rho = exhausted = None
            try:  # as `gammarho compute`: gamma, then rho, one budget each
                gamma = solvers.domination_number(g, SOLVE_BUDGET)
                rho = solvers.packing_number(g, SOLVE_BUDGET)
            except solvers.BudgetExceeded as exc:
                exhausted = exc
            out.append((g, gamma, rho, exhausted))
        finally:
            if tracer is not None:
                tracer.close()
    return out


def hard_check(pkg, inputs, raw) -> PassCheck:
    graphs, solvers = pkg.graphs, pkg.solvers
    check = PassCheck()
    nodes = 0
    for (gid, family, _), (g, gamma, rho, exhausted) in zip(inputs, raw):
        check.attempted += 1
        if exhausted is not None:
            check.inconclusive += 1
            nodes += exhausted.nodes + (gamma.nodes if gamma else 0)
            check.digest_rows.append((gid, "inconclusive", exhausted.quantity))
            continue
        nodes += gamma.nodes + rho.nodes
        check.digest_rows.append((gid, gamma.value, rho.value))
        if len(gamma.witness) != gamma.value or not graphs.is_dominating(g, gamma.witness):
            check.fail(gid, "gamma witness is not a dominating set of its size")
        if len(rho.witness) != rho.value or not graphs.is_packing(g, rho.witness):
            check.fail(gid, "rho witness is not a packing of its size")
        if rho.value > gamma.value:
            check.fail(gid, f"rho {rho.value} > gamma {gamma.value}")
        if family in ("tree", "path") and rho.value != gamma.value:
            check.fail(gid, "tree with gamma != rho")
        if family == "path" and (gamma.value, rho.value) != (
                solvers.path_gamma(g.n), solvers.path_rho(g.n)):
            check.fail(gid, "path values differ from the closed forms")
        if gid not in check.failed:
            check.answered += 1
    check.counts["solve.nodes"] = nodes
    return check


# ------------------------------------------------------ certify-classes ----

CERTIFY_CLASSES = ("bicubic", "mop", "biconvex")
# Copies of each class's size cycle.  A few random mops near n = 42 take
# 10-50 times as long as the rest, so the pass time depends on how many
# of them a seed draws.  Across 10 seeds, wall_s spread 0.14 of its
# median with one copy and 0.03-0.05 with three.
CERTIFY_REPEATS = 3


def certify_setup(pkg, seed: int, workdir: Path):
    """Three seeded corpora written as graph6 files, biconvex with
    #xorder/#yorder sidecars.  Mops stop at n = 42: gen_random_mop(43)
    raises IndexError in the seed code."""
    gen = pkg.generators
    seeds = _seeds(random.Random(seed))
    corpora = {
        "bicubic": [(gen.gen_random_bicubic(16 + 2 * (i % 8), next(seeds)), None)
                    for i in range(64 * CERTIFY_REPEATS)],
        "mop": [(gen.gen_random_mop(10 + i % 33, next(seeds)), None)
                for i in range(264 * CERTIFY_REPEATS)],
        "biconvex": [],
    }
    for i in range(105 * CERTIFY_REPEATS):
        g, o = gen.gen_random_biconvex(4 + i % 21, 4 + (i * 5) % 21, next(seeds))
        corpora["biconvex"].append((g, (o.x_order, o.y_order)))
    paths = {}
    for cls, items in corpora.items():
        path = workdir / f"certify-{cls}.g6"
        with open(path, "w") as fh:
            pkg.formats.write_graph6_stream(items, fh)
        paths[cls] = str(path)
    return {"paths": paths, "graphs": {c: [g for g, _ in v] for c, v in corpora.items()}}


def certify_run(pkg, inputs, tracer):
    return {cls: _capture(pkg, ["certify", "--class", cls, "--input", inputs["paths"][cls]])
            for cls in CERTIFY_CLASSES}


def _bundles(text: str):
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return
        obj, pos = decoder.raw_decode(text, pos)
        yield obj


def _clique_graph(pkg, triangles):
    """Triangles adjacent when they share a vertex, built independently of
    the package's own construction."""
    edges = [(i, j) for i in range(len(triangles)) for j in range(i + 1, len(triangles))
             if set(triangles[i]) & set(triangles[j])]
    return pkg.graphs.Graph.from_edges(len(triangles), edges)


def _check_bundle(pkg, cls, g, bundle, check: PassCheck) -> None:
    is_dom, is_pack = pkg.graphs.is_dominating, pkg.graphs.is_packing
    gid = bundle["graph_id"]
    rho = min((r["rho"] for r in bundle["records"] if r["rho"] is not None), default=None)
    gamma = max((r["gamma"] for r in bundle["records"] if r["gamma"] is not None),
                default=None)
    packings, dominating = [], []
    if cls == "bicubic":
        packings = [bundle["layers"]["p"], bundle["combined_packing"]]
        if "side_packing" in bundle:
            packings.append(bundle["side_packing"])
    elif cls == "mop":
        dominating = [bundle["projected_dominating"], bundle["averaged_dominating"]]
        cg = _clique_graph(pkg, bundle["triangles"])
        if not is_dom(cg, bundle["clique_dominating"]):
            check.fail(gid, "clique_dominating does not dominate the clique graph")
    else:
        packings = [bundle["packing"]["vertices"]]
        dominating = [bundle["dominating"]["vertices"]]
    for p in packings:
        if not is_pack(g, p):
            check.fail(gid, "certificate packing is not a packing")
        elif rho is not None and len(p) > rho:
            check.fail(gid, f"packing of size {len(p)} > rho {rho}")
    for d in dominating:
        if not is_dom(g, d):
            check.fail(gid, "certificate dominating set does not dominate")
        elif gamma is not None and len(d) < gamma:
            check.fail(gid, f"dominating set of size {len(d)} < gamma {gamma}")


def certify_check(pkg, inputs, raw) -> PassCheck:
    check = PassCheck()
    output_bytes = 0
    for cls in CERTIFY_CLASSES:
        code, text = raw[cls]
        output_bytes += len(text)
        graphs = inputs["graphs"][cls]
        ids = [f"{cls}-{i}" for i in range(len(graphs))]
        if code != 0:
            for gid in ids:
                check.fail(gid, f"certify --class {cls} exited with {code}")
        try:
            bundles = list(_bundles(text))
        except json.JSONDecodeError as exc:
            check.fail(f"{cls}-output", f"unparsable certify output: {exc}")
            bundles = []
        records = []
        for g, bundle in zip(graphs, bundles):
            records.extend(pkg.reports.ScanRecord(**r) for r in bundle["records"])
            _check_bundle(pkg, cls, g, bundle, check)
        state = _check_records(records, check, set())
        _tally(check, ids, state)
    check.counts["cli.output_bytes"] = output_bytes
    return check


# ---------------------------------------------------- reproduce-bicubic ----

def reproduce_setup(pkg, seed: int, workdir: Path):
    """The experiment's inputs are fixed: every connected cubic bipartite
    graph on 6..12 vertices.  The seed has nothing to choose."""
    return None


def reproduce_run(pkg, inputs, tracer):
    return _capture(pkg, ["reproduce", "--name", "bicubic-small"])


def reproduce_check(pkg, inputs, raw) -> PassCheck:
    code, text = raw
    check = PassCheck()
    if code != 0:
        check.fail("reproduce", f"exited with {code}")
    records, summary = pkg.reports.read_report(text.splitlines())
    if summary is None:
        check.fail("reproduce", "report has no summary line")
    state = _check_records(records, check, set())
    per_n: dict[int, set] = {}
    for r in records:
        per_n.setdefault(r.n, set()).add(r.graph_id)
    found = {n: len(ids) for n, ids in sorted(per_n.items())}
    if found != BICUBIC_COUNTS:
        check.fail("reproduce", f"enumerated {found}, expected {BICUBIC_COUNTS}")
    _tally(check, sorted(state), state)
    check.counts["cli.output_bytes"] = len(text)
    check.counts["generators.enumerate.graphs"] = sum(found.values())
    return check


WORKLOADS = {
    "scan-mixed": (scan_setup, scan_run, scan_check),
    "solve-hard": (hard_setup, hard_run, hard_check),
    "certify-classes": (certify_setup, certify_run, certify_check),
    "reproduce-bicubic": (reproduce_setup, reproduce_run, reproduce_check),
}
