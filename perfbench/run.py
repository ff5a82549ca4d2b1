"""gammarho benchmark: seeded workloads, answer checks, end-to-end metrics
and a traced per-layer split.  Standard library only.

    python3 perfbench/run.py --workload solve-hard --seed 3 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Run it from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  With `--trace 0` it reports the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
answer check passed, 1 when one failed and 2 when the package is missing.
`--seconds` defaults to `run_seconds` in BENCHMARK.json.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups per run: at least SETUP_REPEATS, and at least SETUP_MIN_S of them
# in all.  They are spread between the passes rather than run back to back,
# so that one slow stretch of a shared machine does not set their median.
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0
# A traced run makes at least this many untraced/traced pass pairs.
TRACED_PAIRS = 2
MODULES = ("graphs", "formats", "solvers", "bicubic", "outerplanar", "biconvex",
           "generators", "reports", "harness", "cli")

# Known defects, probed once per invocation outside the timed passes.  The
# workloads stay below these sizes until the defects are fixed.  The budget
# keeps the path probe short once its recursion no longer overflows.
PROBE_BUDGET = 20_000


def load_package() -> types.SimpleNamespace:
    """Import gammarho afresh from SRC and return its modules."""
    for name in [m for m in sys.modules if m == "gammarho" or m.startswith("gammarho.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("gammarho")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"gammarho imported from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"gammarho.{m}") for m in MODULES})


def probe_defects(pkg) -> dict[str, str]:
    def outcome(fn) -> str:
        try:
            fn()
        except pkg.solvers.BudgetExceeded:
            return "inconclusive"
        except Exception as exc:  # recorded, not raised: the probe reports
            return f"error: {type(exc).__name__}"
        return "answer"

    gen, solvers = pkg.generators, pkg.solvers
    return {
        "domination_number(gen_path(3300))": outcome(
            lambda: solvers.domination_number(gen.gen_path(3300), PROBE_BUDGET)),
        "gen_random_mop(43)": outcome(lambda: gen.gen_random_mop(43, 0)),
    }


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class Measured:
    """One workload invocation: repeated set-up, timed passes, checks."""

    def __init__(self, workload: str, seed: int, workdir: Path, traced: bool):
        self.name = workload
        self.seed = seed
        self.workdir = workdir
        self.setup_fn, self.run_fn, self.check_fn = WORKLOADS[workload]
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer(workdir)
        # a traced run reports per-layer times, which the calibration
        # loop would inflate, and no end-to-end times
        self.sample_speed = not traced

    def setup(self, traced: bool = False) -> SpeedClock:
        gc.collect()  # start each timed region from the same heap state
        with SpeedClock(self.sample_speed) as clock:
            self.pkg = load_package()
            if traced:
                self.tracer.install()
            self.inputs = self.setup_fn(self.pkg, self.seed, self.workdir)
        return clock

    def one_pass(self, traced: bool) -> dict:
        if traced:
            self.tracer.install()
            self.tracer.reset()
        gc.collect()
        with SpeedClock(self.sample_speed) as clock:
            raw = self.run_fn(self.pkg, self.inputs, self.tracer if traced else None)
        if traced:
            self.tracer.uninstall()
            self.tracer.collect()
        check = self.check_fn(self.pkg, self.inputs, raw)
        self.attempted += max(check.attempted, 1)
        self.failed += len(check.failed) if check.attempted else 1
        self.problems.extend(check.problems)
        answers = digest(check.digest_rows)
        check.digest_rows = []  # keep memory flat however many passes run
        return {"clock": clock, "check": check, "digest": answers,
                "trace": snapshot(self.tracer) if traced else None}

    def fail(self, message: str) -> None:
        self.problems.append(message)
        self.failed += 1


def snapshot(tracer: Tracer) -> dict:
    return {"calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s), "counts": dict(tracer.counts)}


def run_passes(m: Measured, seconds: float, traced_too: bool,
               setups: list[SpeedClock]) -> list[dict]:
    """Passes, with their checks, while another pass as long as the last
    one still ends within `seconds`; at least one.  A pass longer than
    half of `seconds` (solve-hard, reproduce-bicubic) is thus made once,
    which keeps every run of every workload near `seconds` long.  With
    `traced_too`, untraced and traced passes alternate, TRACED_PAIRS pairs
    at least.  Between passes, fresh set-ups are timed and appended to
    `setups`, as many as the share of `seconds` gone by; the rest of the
    set-ups follow the last pass."""
    target = max(SETUP_REPEATS, math.ceil(SETUP_MIN_S / setups[0].wall))
    passes: list[dict] = []
    measured = 0.0
    while True:
        traced = traced_too and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append(m.one_pass(traced))
        last = time.perf_counter() - start
        measured += last
        done = (measured + last > seconds
                and (not traced_too or len(passes) >= 2 * TRACED_PAIRS))
        due = target if done else min(target, math.ceil(target * measured / seconds))
        while len(setups) < due:
            setups.append(m.setup())
        if done:
            return passes


def check_repeats(m: Measured, passes: list[dict]) -> None:
    """Answers and deterministic counts must repeat exactly between passes,
    traced or not."""
    first = passes[0]
    for p in passes[1:]:
        if p["digest"] != first["digest"]:
            m.fail(f"answer digest changed between passes: {first['digest']} vs {p['digest']}")
        if p["check"].counts != first["check"].counts:
            m.fail(f"counts changed between passes: {first['check'].counts} vs {p['check'].counts}")
    traced = [layer_counts(p, m) for p in passes if p["trace"] is not None]
    for counts in traced[1:]:
        if counts != traced[0]:
            m.fail(f"traced counts changed between passes: {traced[0]} vs {counts}")
    if traced:
        seen = first["check"].counts
        layer = traced[0]
        for key in ("reports.bytes", "generators.enumerate.graphs"):
            if key in seen and layer.get(key) != seen[key]:
                m.fail(f"{key}: {seen[key]} untraced, {layer.get(key)} traced")
        if "solve.nodes" in seen:
            nodes = layer["solvers.gamma.nodes"] + layer["solvers.rho.nodes"]
            if nodes != seen["solve.nodes"]:
                m.fail(f"solver nodes: {seen['solve.nodes']} untraced, {nodes} traced")


# ------------------------------------------------------- per-layer metrics ----

COUNT_METRICS = (
    "solvers.gamma.calls", "solvers.gamma.nodes", "solvers.rho.calls",
    "solvers.rho.nodes", "solvers.budget_exhausted", "solvers.repeat_frac",
    "formats.decode.calls", "generators.enumerate.graphs", "reports.bytes",
    "cli.output_bytes",
)

SELF_TIMES = {
    "solvers.gamma.self_s": "solvers.gamma",
    "solvers.rho.self_s": "solvers.rho",
    "formats.decode.self_s": "formats.decode",
    "formats.encode.self_s": "formats.encode",
    "harness.detect_families.self_s": "harness.detect_families",
    "harness.scan.self_s": "harness.scan",
    "outerplanar.recognize.self_s": "outerplanar.recognize",
    "outerplanar.clique_graph.self_s": "outerplanar.clique_graph",
    "outerplanar.dual.self_s": "outerplanar.dual",
    "outerplanar.tokunaga.self_s": "outerplanar.tokunaga",
    "outerplanar.lift_project.self_s": "outerplanar.lift_project",
    "bicubic.validate.self_s": "bicubic.validate",
    "bicubic.side_packing.self_s": "bicubic.side_packing",
    "bicubic.layers.self_s": "bicubic.layers",
    "biconvex.decompose.self_s": "biconvex.decompose",
    "biconvex.certificates.self_s": "biconvex.certificates",
    "generators.enumerate.self_s": "generators.enumerate",
    "generators.random.self_s": "generators.random",
    "reports.write.self_s": "reports.write",
    "cli.self_s": "cli",
}


def _merged(setup: dict, pass_trace: dict) -> dict:
    out = {}
    for key in ("calls", "self_s", "total_s", "counts"):
        table = dict(setup[key])
        for name, value in pass_trace[key].items():
            table[name] = table.get(name, 0) + value
        out[key] = table
    return out


def layer_counts(p: dict, m: Measured) -> dict:
    t = _merged(m.setup_trace, p["trace"])
    calls, counts = t["calls"], t["counts"]
    solves = calls.get("solvers.gamma", 0) + calls.get("solvers.rho", 0)
    repeats = counts.get("solvers.gamma.repeats", 0) + counts.get("solvers.rho.repeats", 0)
    return {
        "solvers.gamma.calls": calls.get("solvers.gamma", 0),
        "solvers.gamma.nodes": counts.get("solvers.gamma.nodes", 0),
        "solvers.rho.calls": calls.get("solvers.rho", 0),
        "solvers.rho.nodes": counts.get("solvers.rho.nodes", 0),
        "solvers.budget_exhausted": counts.get("solvers.budget_exhausted", 0),
        "solvers.repeat_frac": repeats / solves if solves else 0.0,
        "formats.decode.calls": calls.get("formats.decode", 0),
        "generators.enumerate.graphs": counts.get("generators.enumerate.graphs", 0),
        "reports.bytes": counts.get("reports.bytes", 0),
        "cli.output_bytes": p["check"].counts.get("cli.output_bytes", 0),
    }


def layer_metrics(m: Measured, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: one traced set-up plus one traced pass, times as
    the median over traced passes.  The tracing overhead is the median, over
    each untraced pass and the traced pass after it, of their wall ratio."""
    traced = [p for p in passes if p["trace"] is not None]
    per_pass = []
    for p in traced:
        t = _merged(m.setup_trace, p["trace"])
        row = dict(layer_counts(p, m))
        for metric, span in SELF_TIMES.items():
            row[metric] = t["self_s"].get(span, 0.0)
        busy = t["total_s"].get("harness.worker", 0.0)
        row["harness.worker_busy_s"] = busy
        row["harness.parallel_eff"] = busy / (2 * p["clock"].wall)
        for q in ("gamma", "rho"):
            nodes = row[f"solvers.{q}.nodes"]
            row[f"solvers.{q}.us_per_node"] = (
                1e6 * row[f"solvers.{q}.self_s"] / nodes if nodes else 0.0)
        per_pass.append(row)
    out = {}
    for metric in per_pass[0]:
        values = [row[metric] for row in per_pass]
        out[metric] = (statistics.median(values), _unit(metric))
    pairs = zip(passes[0::2], passes[1::2])
    overhead = statistics.median(t["clock"].wall / u["clock"].wall for u, t in pairs) - 1.0
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_node"):
        return "us"
    if metric.endswith(("_frac", "_eff")):
        return "frac"
    if metric.endswith("bytes"):
        return "B"
    return "count"


# -------------------------------------------------------- end-to-end ----

def end_to_end(m: Measured, passes: list[dict], setups: list[SpeedClock]):
    """Times are medians over the run, in reference seconds (speed.py)."""
    check = passes[0]["check"]
    attempted = max(check.attempted, 1)
    wall = statistics.median(p["clock"].ref_wall for p in passes)
    return {
        "wall_s": (wall, "s"),
        "graphs_per_s": (check.answered / wall, "1/s"),
        "setup_s": (statistics.median(c.ref_wall for c in setups), "s"),
        "cpu_s": (statistics.median(p["clock"].ref_cpu for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "conclusive_frac": (1 - check.inconclusive / attempted, "frac"),
        "ok_frac": (1 - len(check.failed) / attempted, "frac"),
    }


def run_workload(args) -> int:
    if not (SRC / "gammarho" / "__init__.py").is_file():
        print(f"perfbench: no gammarho package under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there


def _measure(args, workdir: Path) -> int:
    traced = bool(args.trace)
    m = Measured(args.workload, args.seed, workdir, traced)
    setups = [m.setup()]
    probes = probe_defects(m.pkg)
    if traced:
        m.tracer.reset()
        m.setup(traced=True)
        m.tracer.uninstall()
        m.setup_trace = snapshot(m.tracer)
    try:
        passes = run_passes(m, args.seconds, traced, setups)
    except Exception as exc:  # a traceback from the package fails the run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(m.attempted, 1),
                          "failed": m.failed + 1, "metrics": {}}))
        return 1
    check_repeats(m, passes)
    check = passes[0]["check"]

    metrics = layer_metrics(m, passes) if traced else end_to_end(m, passes, setups)
    plain = [p for p in passes if p["trace"] is None]
    print(f"workload {m.name}  seed {m.seed}  passes {len(plain)} untraced"
          + (f", {len(passes) - len(plain)} traced" if traced else ""))
    print(f"  graphs per pass {check.attempted}: answered {check.answered}, "
          f"inconclusive {check.inconclusive}, failed {len(check.failed)}")
    print(f"  inconclusive_frac {check.inconclusive / max(check.attempted, 1):.4f}  "
          f"error_frac {len(check.failed) / max(check.attempted, 1):.4f}")
    print(f"  answer digest {passes[0]['digest']}")
    clocks = {"pass": [p["clock"] for p in plain], "set-up": setups}
    for what, group in clocks.items():
        print(f"  {what} walls (s) {' '.join(f'{c.wall:.3f}' for c in group)}")
        if m.sample_speed:
            print(f"  {what} speeds {' '.join(f'{c.speed:.3f}' for c in group)}")
    if m.sample_speed:
        print(f"  median measured wall_s {statistics.median(c.wall for c in clocks['pass']):.4f}"
              f"  setup_s {statistics.median(c.wall for c in setups):.4f}"
              f"  cpu_s {statistics.median(c.cpu for c in clocks['pass']):.4f}")
    for probe, result in probes.items():
        print(f"  defect probe {probe}: {result}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for problem in m.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not m.problems and m.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    merged: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
