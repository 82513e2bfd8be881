"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 1-10 --label set-a
    python3 perfbench/collect.py --seeds 1-3 --trace 1 --label traced

Runs are made one after another from the repository root.  Raw results go
to ``perfbench/results/<label>.json``; a Markdown summary goes to standard
output.  For each end-to-end metric the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median.  A traced summary gives each per-layer metric's median
and its share of the traced pass, plus the tracing overhead against an
untraced results file given with ``--untraced``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    print(done.stderr.strip().splitlines()[-1], file=sys.stderr, flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(results: dict, trace: int, untraced: dict | None) -> str:
    lines = []
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        lines.append(f"### {workload}: {len(runs)} runs, correct "
                     f"{correct}, failed share "
                     f"{', '.join(f'{s:.4f}' for s in sorted(shares))}")
        lines.append("")
        lines.append("| metric | unit | median | Q1 | Q3 | spread |"
                     if not trace else "| metric | unit | median | share |")
        lines.append("|---|---|---|---|---|---|" if not trace
                     else "|---|---|---|---|")
        if trace:
            pass_medians = [statistics.median(r["pass_times"]) for r in runs]
            traced_pass = statistics.median(pass_medians)
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            if trace:
                value = statistics.median(values)
                share = (f"{value / traced_pass:.1%}"
                         if first["unit"] == "s" else "")
                if value:
                    lines.append(f"| {name} | {first['unit']} | {value:.4g}"
                                 f" | {share} |")
                continue
            q1, median, q3 = quartiles(values)
            lines.append(f"| {name} | {first['unit']} | {median:.4g} | "
                         f"{q1:.4g} | {q3:.4g} | {(q3 - q1) / median:.2%} |")
        if trace:
            lines.append(f"| traced pass | s | {traced_pass:.4g} | 100% |")
            if untraced and workload in untraced:
                plain = statistics.median(
                    r["metrics"]["solve_s"]["value"]
                    for r in untraced[workload])
                lines.append("")
                lines.append(f"Tracing overhead: {traced_pass / plain - 1:+.1%}"
                             f" (untraced solve_s median {plain:.4g} s).")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--untraced", default=None,
                        help="results file of untraced runs, for overhead")
    args = parser.parse_args()
    if len(seed_range(args.seeds)) < 2:
        parser.error("quartiles need at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    results = {}
    for workload in names:
        results[workload] = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            if args.trace:
                trace_file = os.path.join(HERE, "traces",
                                          f"{workload}-seed{seed}.json")
                with open(trace_file, encoding="utf-8") as fh:
                    result["pass_times"] = json.load(fh)["meta"]["pass_times"]
            results[workload].append(result)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.label}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    untraced = None
    if args.untraced:
        with open(args.untraced, encoding="utf-8") as fh:
            untraced = json.load(fh)
    print(summarize(results, args.trace, untraced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
