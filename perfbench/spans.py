"""Span tracing of gammarho's layers from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
namespace where callers look it up: the package uses
`from .solvers import domination_number`, so patching `gammarho.solvers`
alone would miss the calls made from harness, cli, bicubic and the rest.
`Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the time of the spans it
encloses.  Spans are aggregated per name as they close: calls, self time,
total time and layer counts (solver nodes, enumerated graphs, report
bytes).  Worker processes forked by `run_scan` inherit the wrappers; a
pool terminates its workers instead of letting them exit, so a worker
appends its aggregate to a file in `spool_dir` whenever its outermost
span closes, and the parent folds those files in with `collect`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) -> span name.  Several functions may share a span
# name; their calls, times and counts add up.
SPANS = {
    ("solvers", "domination_number"): "solvers.gamma",
    ("solvers", "packing_number"): "solvers.rho",
    ("formats", "decode_graph6"): "formats.decode",
    ("formats", "decode_sparse6"): "formats.decode",
    ("formats", "encode_graph6"): "formats.encode",
    ("harness", "detect_families"): "harness.detect_families",
    ("harness", "run_scan"): "harness.scan",
    ("harness", "run_experiment"): "harness.experiment",
    ("harness", "_predicate_worker"): "harness.worker",
    ("harness", "_experiment_worker"): "harness.experiment_item",
    ("outerplanar", "recognize_mop"): "outerplanar.recognize",
    ("outerplanar", "build_clique_graph"): "outerplanar.clique_graph",
    ("outerplanar", "build_dual"): "outerplanar.dual",
    ("outerplanar", "tokunaga_color"): "outerplanar.tokunaga",
    ("outerplanar", "verify_tokunaga"): "outerplanar.tokunaga",
    ("outerplanar", "lift_packing"): "outerplanar.lift_project",
    ("outerplanar", "project_dominating"): "outerplanar.lift_project",
    ("outerplanar", "averaged_dominating"): "outerplanar.lift_project",
    ("bicubic", "validate_bicubic"): "bicubic.validate",
    ("bicubic", "side_packing"): "bicubic.side_packing",
    ("bicubic", "maximal_packing_in"): "bicubic.layers",
    ("bicubic", "layer_decompose"): "bicubic.layers",
    ("bicubic", "combined_packing"): "bicubic.layers",
    ("biconvex", "trim_core"): "biconvex.decompose",
    ("biconvex", "cb_decompose"): "biconvex.decompose",
    ("biconvex", "construct_packing"): "biconvex.certificates",
    ("biconvex", "construct_dominating"): "biconvex.certificates",
    ("generators", "enumerate_bicubic"): "generators.enumerate",
    ("generators", "gen_path"): "generators.random",
    ("generators", "gen_random_tree"): "generators.random",
    ("generators", "gen_random_connected"): "generators.random",
    ("generators", "gen_random_mop"): "generators.random",
    ("generators", "gen_random_bicubic"): "generators.random",
    ("generators", "gen_random_biconvex"): "generators.random",
    ("reports", "write_report"): "reports.write",
    ("cli", "main"): "cli",
    ("cli", "_certify_one"): "cli.certify_item",
}

# Spans that process one input graph.  Solver calls repeated inside one of
# them count towards solvers.repeat_frac.
ITEM_SPANS = {"harness.worker", "harness.experiment_item", "cli.certify_item",
              "bench.item"}

# The random biconvex sampler checks each draw with cb_decompose; that
# check is part of generating the input, so it stays inside
# generators.random instead of showing up as a biconvex span.
UNPATCHED = {("generators", "cb_decompose"), ("generators", "trim_core")}


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = spool_dir
        self.pid = os.getpid()  # the process that collects
        self.patches: list[tuple[object, str, object]] = []
        self.budget_exceeded: type[Exception] = Exception
        self.reset()

    def reset(self) -> None:
        self.owner = os.getpid()  # the process these aggregates belong to
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # [name, start, child time]
        self.item_depth = 0
        self.item_seen: set = set()
        self.spool_fd: int | None = None

    # ----------------------------------------------------------- patching

    def install(self, package: str = "gammarho") -> None:
        self.budget_exceeded = sys.modules[f"{package}.solvers"].BudgetExceeded
        originals = {}
        for (mod, fn), span in SPANS.items():
            module = sys.modules[f"{package}.{mod}"]
            originals[getattr(module, fn)] = span
        wrappers = {orig: self._wrap(orig, span) for orig, span in originals.items()}
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            short = name[len(package) + 1:]
            for attr, value in list(vars(module).items()):
                if (short, attr) in UNPATCHED or not callable(value):
                    continue
                wrapper = wrappers.get(value)
                if wrapper is not None:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.patches):
            setattr(module, attr, value)
        self.patches.clear()

    def _wrap(self, fn, span: str):
        counter = _COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(span)
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                return counter(self, fn, args, kwargs)
            finally:
                self.close()

        return wrapper

    # -------------------------------------------------------------- spans

    def open(self, span: str) -> None:
        if os.getpid() != self.owner:
            # first span in a forked worker: drop the parent's open spans
            # and totals, which the parent reports itself
            self.reset()
        if span in ITEM_SPANS:
            if self.item_depth == 0:
                self.item_seen = set()
            self.item_depth += 1
        self.stack.append([span, time.perf_counter(), 0.0])

    def close(self) -> None:
        span, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.calls[span] += 1
        self.self_s[span] += duration - child
        self.total_s[span] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if span in ITEM_SPANS:
            self.item_depth -= 1
        if not self.stack and self.owner != self.pid:
            self._spool()

    def _spool(self) -> None:
        """Append this worker's aggregate since its last spool, then clear
        it, so nothing is lost when the pool terminates the worker."""
        line = json.dumps({"calls": self.calls, "self_s": self.self_s,
                           "total_s": self.total_s, "counts": self.counts})
        if self.spool_fd is None:
            # stays open for the worker's life; the pool terminates the
            # worker and the kernel closes it then
            path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
            self.spool_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(self.spool_fd, (line + "\n").encode())
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

    def collect(self) -> None:
        """Fold the spooled worker aggregates into this process's totals
        and remove the spool files."""
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                part = json.loads(line)
                for key, table in (("calls", self.calls), ("self_s", self.self_s),
                                   ("total_s", self.total_s), ("counts", self.counts)):
                    for name, value in part[key].items():
                        table[name] += value
            path.unlink()

    def note_solve(self, quantity: str, graph) -> None:
        """Count a solver call that repeats one already made on an equal
        graph while processing the same input graph."""
        if self.item_depth == 0:
            return
        key = (quantity, graph)
        if key in self.item_seen:
            self.counts[f"solvers.{quantity}.repeats"] += 1
        else:
            self.item_seen.add(key)


def _solver_counter(quantity: str):
    def count(tracer: Tracer, fn, args, kwargs):
        tracer.note_solve(quantity, args[0])
        try:
            result = fn(*args, **kwargs)
        except tracer.budget_exceeded as exc:
            tracer.counts[f"solvers.{quantity}.nodes"] += exc.nodes
            tracer.counts["solvers.budget_exhausted"] += 1
            raise
        tracer.counts[f"solvers.{quantity}.nodes"] += result.nodes
        return result
    return count


def _count_enumerated(tracer: Tracer, fn, args, kwargs):
    graphs = fn(*args, **kwargs)
    tracer.counts["generators.enumerate.graphs"] += len(graphs)
    return graphs


def _count_report_bytes(tracer: Tracer, fn, args, kwargs):
    sink = args[1] if len(args) > 1 else kwargs["sink"]
    before = sink.tell()
    result = fn(*args, **kwargs)
    # reports are ASCII JSON, so characters written equal bytes
    tracer.counts["reports.bytes"] += sink.tell() - before
    return result


_COUNTERS = {
    "solvers.gamma": _solver_counter("gamma"),
    "solvers.rho": _solver_counter("rho"),
    "generators.enumerate": _count_enumerated,
    "reports.write": _count_report_bytes,
}
