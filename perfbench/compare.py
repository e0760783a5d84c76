#!/usr/bin/env python3
"""Compares two sets of benchmark results, refusing unlike-for-like pairs.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result files or directories of them: run.py writes one per
run to .bench_build/perfbench/results/. Runs are paired by (workload, trace,
seed); every pair must carry identical host records (nproc, P, active and
best ISA, compiler, build type, LLC size, seed), and every run must have a
partner, or nothing is compared (exit 2). For each metric it prints both
medians with quartiles and the change of the head median; an end-to-end
metric is flagged when it got worse by more than its BENCHMARK.json bound.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        r = json.loads(f.read_text())
        key = (r["workload"], r["trace"], r["record"]["seed"])
        if key in runs:
            raise SystemExit(f"compare: two runs of {key} in {path}")
        runs[key] = r
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(Path(argv[0])), load(Path(argv[1]))
    refusals = [f"{k} has no partner in {'HEAD' if k in base else 'BASE'}"
                for k in sorted(set(base) ^ set(head))]
    for k in sorted(set(base) & set(head)):
        b, h = base[k]["record"], head[k]["record"]
        diff = sorted(f for f in set(b) | set(h) if b.get(f) != h.get(f))
        if diff:
            refusals.append(f"{k}: records differ in {', '.join(diff)}")
    if refusals:
        print("compare: refusing to compare:\n  " + "\n  ".join(refusals), file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    groups = defaultdict(lambda: defaultdict(lambda: ([], [])))
    for k in base:
        for side, runs in enumerate((base, head)):
            for name, m in runs[k]["result"]["metrics"].items():
                groups[k[:2]][name][side].append(m["value"])
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"== {workload} trace={trace} ({len(next(iter(metrics.values()))[0])} pairs)")
        for name, (b, h) in metrics.items():
            bq, hq = quartiles(b), quartiles(h)
            change = hq[1] / bq[1] - 1 if bq[1] else float("nan")
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                verdict = "WORSE beyond bound" if worse > bound else "within bound"
                if (bq[2] - bq[0]) / bq[1] > bound:
                    verdict = "unresolved (base spread exceeds bound)"
            print(f"  {name:44s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"head {hq[1]:.6g} [{hq[0]:.6g}, {hq[2]:.6g}]  {change:+.2%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
