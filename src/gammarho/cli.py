"""Command line front end.

Subcommands:
  compute     exact gamma and rho with optimal witnesses, JSON per graph
  certify     class-specific certificate bundles plus bound records
  decompose   text dump of the structural decomposition for one class
  generate    seeded graph corpora as graph6 (orderings as # sidecars)
  scan        evaluate bound predicates over a corpus, write a report
  reproduce   re-run a canned verification experiment

Exit codes: 0 all checks passed, 2 a conjecture found a counterexample,
3 a theorem-grade check failed (implementation bug or corrupted input),
1 usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .biconvex import ConvexOrdering, cb_decompose, trim_core
from .bicubic import bicubic_layers, combined_packing
from .formats import (
    FormatError,
    iter_graph6_stream,
    read_edgelist,
    write_graph6_stream,
)
from .generators import (
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_tight_family,
)
from .graphs import CertificateError, Graph
from .harness import (
    CERTIFY,
    DEFAULT_PREDICATES,
    EXPERIMENTS,
    budget_record,
    default_scan_items,
    make_item,
    run_experiment,
    run_scan,
    scan_verdict,
    write_counterexamples,
)
from .outerplanar import build_dual, recognize_mop, tokunaga_color
from .reports import write_report
from .solvers import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    domination_number,
    packing_number,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # counterexample exit code; route usage problems to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_args(sp, with_input=True):
    if with_input:
        sp.add_argument("--input", default="-",
                        help="input path, '-' for stdin")
        sp.add_argument("--format", choices=("graph6", "edgelist"),
                        default="graph6")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="branch and bound node budget per graph")


def _load(path: str, fmt: str) -> list[tuple[Graph, ConvexOrdering | None]]:
    """(graph, ordering-or-None) pairs from a path or stdin."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    if fmt == "edgelist":
        pairs = [read_edgelist(text)]
    else:
        pairs = iter_graph6_stream(text.splitlines())
    return [(g, None if o is None else ConvexOrdering(*o)) for g, o in pairs]


def _out_sink(path: str | None):
    if path:
        return open(path, "w")
    return contextlib.nullcontext(sys.stdout)


def cmd_compute(args) -> int:
    for idx, (g, _) in enumerate(_load(args.input, args.format)):
        row = {"index": idx, "n": g.n, "m": g.m}
        try:
            gamma = domination_number(g, args.budget)
            rho = packing_number(g, args.budget)
            row.update(gamma=gamma.value, rho=rho.value,
                       dominating=list(gamma.witness),
                       packing=list(rho.witness),
                       nodes=gamma.nodes + rho.nodes)
        except BudgetExceeded as exc:
            row.update(inconclusive=True, quantity=exc.quantity,
                       range=[exc.lower, exc.upper])
        print(json.dumps(row, sort_keys=True))
    return 0


def _certify_one(idx, g, ordering, cls, budget) -> tuple[dict, list]:
    """Certificate bundle and records of one graph, from the class's
    `CERTIFY` entry.  A solve that exhausts the budget leaves the bundle
    one solver-budget record and no certificates."""
    gid = f"{cls}-{idx}"
    try:
        certs, records = CERTIFY[cls](gid, g, ordering, budget)
    except BudgetExceeded as exc:
        certs, records = {}, [budget_record(gid, cls, g.n, exc)]
    bundle = {"graph_id": gid, "n": g.n, "m": g.m, **certs,
              "records": [r.as_dict() for r in records]}
    return bundle, records


def cmd_certify(args) -> int:
    all_records = []
    for idx, (g, ordering) in enumerate(_load(args.input, args.format)):
        bundle, records = _certify_one(idx, g, ordering, args.cls, args.budget)
        all_records.extend(records)
        print(json.dumps(bundle, indent=2, sort_keys=True))
    return scan_verdict(all_records)


def cmd_decompose(args) -> int:
    for idx, (g, ordering) in enumerate(_load(args.input, args.format)):
        print(f"# graph {idx}: n={g.n} m={g.m}")
        if args.cls == "bicubic":
            labeling, _, layers = bicubic_layers(g)
            print(f"side X: {list(labeling.side_x)}")
            print(f"side Y: {list(labeling.side_y)}")
            for tag in ("p", "q", "r", "s", "t", "w"):
                print(f"{tag.upper()}: {list(getattr(layers, tag))}")
            print(f"combined packing: {list(combined_packing(g, layers))}")
        elif args.cls == "mop":
            t = recognize_mop(g)
            dual = build_dual(t)
            colors = tokunaga_color(t, dual)
            print(f"boundary: {list(t.boundary)}")
            for i, tri in enumerate(t.triangles):
                print(f"triangle {i}: {list(tri)}")
            for (i, j), edge in sorted(dual.shared.items()):
                print(f"dual edge {i}-{j} shares {edge[0]}-{edge[1]}")
            print(f"colors: {list(colors)}")
        elif args.cls == "biconvex":
            if ordering is None:
                raise ValueError("biconvex input needs orderings")
            decomp = cb_decompose(g, trim_core(g, ordering))
            core = decomp.core
            print(f"x order: {list(core.ordering.x_order)}"
                  f"{' (reversed)' if core.x_reversed else ''}")
            print(f"trimmed: left={list(core.trimmed_left)} "
                  f"right={list(core.trimmed_right)}")
            for i, blk in enumerate(decomp.blocks):
                j = decomp.j_sets[i]
                side = decomp.j_sides[i]
                extra = f" J={list(j)} (side {side})" if j else ""
                print(f"block {i + 1}: X={list(blk.x_side)} "
                      f"Y={list(blk.y_side)}{extra}")
        else:
            raise ValueError(f"decompose does not support class {args.cls!r}")
    return 0


def cmd_generate(args) -> int:
    sizes = args.n or []
    items = []
    for i in range(args.samples):
        seed = args.seed + i
        if args.cls == "tree":
            items.append((gen_random_tree(sizes[0], seed), None))
        elif args.cls == "any":
            items.append((gen_random_connected(sizes[0], seed), None))
        elif args.cls == "bicubic":
            items.append((gen_random_bicubic(sizes[0], seed), None))
        elif args.cls == "mop":
            items.append((gen_random_mop(sizes[0], seed), None))
        elif args.cls == "biconvex":
            ny = sizes[1] if len(sizes) > 1 else sizes[0]
            g, ordering = gen_random_biconvex(sizes[0], ny, seed)
            items.append((g, (ordering.x_order, ordering.y_order)))
        elif args.cls == "tight":
            g, ordering = gen_tight_family(sizes[0])
            items.append((g, (ordering.x_order, ordering.y_order)))
        else:
            raise ValueError(f"unknown class {args.cls!r}")
    with _out_sink(args.out) as sink:
        write_graph6_stream(items, sink)
    return 0


def cmd_scan(args) -> int:
    if args.input:
        loaded = _load(args.input, args.format)
        items = [
            make_item(f"{args.cls}-{i}", args.cls, g, o)
            for i, (g, o) in enumerate(loaded)
        ]
    else:
        items = default_scan_items()
        if args.cls != "any":
            items = [it for it in items if it.family == args.cls]
    predicates = (
        tuple(p.strip() for p in args.predicates.split(",") if p.strip())
        if args.predicates else DEFAULT_PREDICATES
    )
    records, counterexamples = run_scan(items, predicates, args.budget, args.jobs)
    with _out_sink(args.out) as sink:
        write_report(records, sink)
    if args.dump and counterexamples:
        with open(args.dump, "w") as fh:
            write_counterexamples(counterexamples, fh)
    return scan_verdict(records)


def cmd_reproduce(args) -> int:
    corpus = None
    if args.corpus:
        corpus = [g for g, _ in _load(args.corpus, "graph6")]
    names = EXPERIMENTS if args.name == "all" else (args.name,)
    records = []
    for name in names:
        records.extend(
            run_experiment(name, budget=args.budget, jobs=args.jobs,
                           corpus=corpus if name == "bicubic-small" else None)
        )
    with _out_sink(args.out) as sink:
        write_report(records, sink)
    return scan_verdict(records)


def build_parser() -> _Parser:
    parser = _Parser(prog="gammarho",
                     description="exact domination/packing numbers and "
                                 "structural certificates")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("compute", help="exact gamma and rho with witnesses")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("certify", help="class-specific certificates")
    _add_io_args(sp)
    sp.add_argument("--class", dest="cls", default="any",
                    choices=("any", "tree", "bicubic", "mop", "biconvex"))
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("decompose", help="structural decomposition dump")
    _add_io_args(sp)
    sp.add_argument("--class", dest="cls", required=True,
                    choices=("bicubic", "mop", "biconvex"))
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("generate", help="seeded graph corpora")
    sp.add_argument("--class", dest="cls", required=True,
                    choices=("tree", "any", "bicubic", "mop", "biconvex",
                             "tight"))
    sp.add_argument("--n", type=int, nargs="+", required=True,
                    help="size (biconvex: x side and optional y side; "
                         "tight: number of blocks)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("scan", help="evaluate bound predicates on a corpus")
    sp.add_argument("--input", default=None,
                    help="graph corpus; omit to scan the built-in corpus")
    sp.add_argument("--format", choices=("graph6", "edgelist"),
                    default="graph6")
    sp.add_argument("--class", dest="cls", default="any",
                    choices=("any", "tree", "bicubic", "mop", "biconvex"))
    sp.add_argument("--predicates", default=None,
                    help="comma separated predicate names")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--out", default=None)
    sp.add_argument("--dump", default=None,
                    help="write conjecture counterexamples here as JSONL")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("reproduce", help="re-run a canned experiment")
    sp.add_argument("--name", required=True,
                    choices=EXPERIMENTS + ("all",))
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--corpus", default=None,
                    help="extra graph6/sparse6 corpus (bicubic-small only)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"gammarho: certificate failure: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"gammarho: bad input: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"gammarho: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
