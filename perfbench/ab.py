#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark.

    python3 perfbench/ab.py A_TREE B_TREE [--pairs K]

A_TREE and B_TREE are source trees holding perfbench/ (two checkouts, or
the same one twice to measure the benchmark against itself). Every run
goes through the tree's own perfbench/run.py, which builds it first.
For K pairs (default 10) the two sides run every workload of A's
BENCHMARK.json back to back for its run_seconds, alternating which side
goes first. Pair i uses seed i, the same on both sides.

For every workload and end-to-end metric it prints each side's median and
quartiles, the pairs B won (ties count for neither), the change of B's
median against A's as a share of A's median, and a verdict against the
bound BENCHMARK.json fixes for that metric:
  worse       B's median is worse than A's by more than the bound
  unresolved  A's own quartile spread is wider than the bound, and not
              every B run beats every A run
  better      B won at least 9 of 10 pairs and the medians differ by
              more than A's quartile spread
  same        otherwise
Exits 1 if any run was incorrect or any verdict is "worse".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound, wins, pairs):
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    if a_med == 0:
        return "same" if b_med == 0 else "unresolved"
    sign = 1 if better == "higher" else -1
    gain = sign * (b_med - a_med) / abs(a_med)
    a_spread = (a_q3 - a_q1) / abs(a_med)
    all_better = (min(b) > max(a)) if better == "higher" else (max(b) < min(a))
    if gain < -bound:
        return "worse"
    if a_spread > bound and not all_better:
        return "unresolved"
    if wins >= 0.9 * pairs and gain > a_spread:
        return "better"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    a_tree, b_tree = os.path.abspath(args.a), os.path.abspath(args.b)
    with open(os.path.join(a_tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    results = {w: {"A": [], "B": []} for w in workloads}
    incorrect = 0
    for i in range(args.pairs):
        seed = i + 1
        order = [("A", a_tree), ("B", b_tree)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, tree in order:
                r = run(tree, w, seed, seconds)
                if r is None or not r["correct"]:
                    incorrect += 1
                    print(f"pair {i + 1} {w} {side}: run failed or incorrect", flush=True)
                    continue
                results[w][side].append((i, r["metrics"]))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", flush=True)
    worse = 0
    for w in workloads:
        print(f"\n== {w}")
        print(f"  {'metric':34s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} "
              f"{'B wins':>7s} {'change':>8s}  verdict")
        a_runs = dict(results[w]["A"])
        b_runs = dict(results[w]["B"])
        paired = sorted(set(a_runs) & set(b_runs))
        for m in metrics:
            name = m["name"]
            a = [a_runs[i][name]["value"] for i in paired if name in a_runs[i]]
            b = [b_runs[i][name]["value"] for i in paired if name in b_runs[i]]
            if not a or len(a) != len(b):
                print(f"  {name:34s} missing")
                continue
            better = m["better"]
            bound = m["bound"]
            wins = sum(1 for x, y in zip(a, b)
                       if (y > x if better == "higher" else y < x))
            v = verdict(a, b, better, bound, wins, len(a))
            worse += v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print(f"  {name:34s} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
                  f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} "
                  f"{wins:3d}/{len(a):<3d} {change:+8.2%}  {v}")
    print(f"\nincorrect runs: {incorrect}")
    return 1 if incorrect or worse else 0


if __name__ == "__main__":
    sys.exit(main())
