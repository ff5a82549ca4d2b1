"""Steadiness check for the benchmark, and the baseline it records.

Runs `run.py` once per seed on each workload and reports, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median.  A spread above the metric's bound in BENCHMARK.json fails
the check.  The same statistics of the times as measured, before the
speed correction of speed.py, are printed and recorded but not gated.

With `--sets 2` it makes a second set of runs on the next seeds, and fails
when a metric's median differs between the sets by more than its bound.
The sets are interleaved run by run (seed i of every set, on every
workload, before seed i + 1), so a slow stretch of the machine falls on all
of them alike.  With `--traced`, it also runs each workload twice traced
on the first seed and fails unless every deterministic count repeats
exactly.

    python3 perfbench/steady.py --workloads solve-hard --seeds 5
    python3 perfbench/steady.py --seeds 10 --sets 2 --traced --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark invocation: its metric values, answer digest and
    defect probe outcomes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    run_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, {result}")
    out = {"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
           "probes": {}, "run_s": run_s}
    for line in lines:
        text = line.strip()
        if text.startswith("median measured "):
            words = text.split()[2:]
            out["measured"] = dict(zip(words[::2], map(float, words[1::2])))
        elif text.startswith("answer digest "):
            out["digest"] = text.split()[-1]
        elif text.startswith("defect probe "):
            probe, outcome = text[len("defect probe "):].split(": ", 1)
            out["probes"][probe] = outcome
    return out


def machine() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None, help="write every value here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report: dict = {"machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    runs: dict = {(w, k): [] for w in args.workloads for k in range(args.sets)}
    for i in range(args.seeds):
        for k in range(args.sets):
            for workload in args.workloads:
                seed = args.first_seed + k * args.seeds + i
                result = run_once(workload, seed, args.seconds, 0)
                runs[workload, k].append(result)
                print(f"{workload} seed {seed}: wall_s {result['metrics']['wall_s']:.4g}  "
                      f"setup_s {result['metrics']['setup_s']:.4g}  "
                      f"(measured {result['measured']['wall_s']:.4g} and "
                      f"{result['measured']['setup_s']:.4g}; run {result['run_s']:.1f} s)",
                      flush=True)
    for workload in args.workloads:
        entry: dict = {"sets": []}
        for k in range(args.sets):
            first = args.first_seed + k * args.seeds
            print(f"{workload}: set {k + 1}, seeds {first}-{first + args.seeds - 1}")
            stats_set = {}
            for metric, bound in bounds.items():
                stats = quartiles([r["metrics"][metric] for r in runs[workload, k]])
                stats_set[metric] = stats
                sp = stats["spread"]
                flag = "" if sp <= bound else "  OVER BOUND"
                ok &= not flag
                third = " (< bound/3)" if sp < bound / 3 else ""
                print(f"  {metric:16s} median {stats['median']:12.6g}  "
                      f"spread {sp:.4f}  bound {bound}{third}{flag}")
            # the same times before the speed correction, for comparison
            measured = {m: quartiles([r["measured"][m] for r in runs[workload, k]])
                        for m in ("wall_s", "setup_s", "cpu_s")}
            print("  measured, uncorrected: " + "  ".join(
                f"{m} median {q['median']:.4g} spread {q['spread']:.4f}"
                for m, q in measured.items()))
            entry["sets"].append({"runs": runs[workload, k], "end_to_end": stats_set,
                                  "measured": measured})
        for k in range(1, args.sets):
            print(f"{workload}: set {k + 1} against set 1, median ratio - 1")
            for metric, bound in bounds.items():
                base = entry["sets"][0]["end_to_end"][metric]["median"]
                change = entry["sets"][k]["end_to_end"][metric]["median"] / base - 1
                flag = "" if abs(change) <= bound else "  SETS DISAGREE"
                ok &= not flag
                print(f"  {metric:16s} {change:+.4f}  bound {bound}{flag}")
        if args.traced:
            pair = [run_once(workload, args.first_seed, args.seconds, 1) for _ in range(2)]
            entry["per_layer"] = pair[0]["metrics"]
            entry["per_layer_repeat"] = pair[1]["metrics"]
            same = all(pair[0]["metrics"][c] == pair[1]["metrics"][c] for c in COUNT_METRICS)
            ok &= same
            print(f"  traced counts repeat exactly: {same}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
