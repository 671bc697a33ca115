#!/usr/bin/env python3
"""Steadiness check for hea16bench.

Runs every workload of BENCHMARK.json several times with distinct seeds,
alternating workloads (and reversing their order every other pass), and
prints per-metric medians and quartiles with the spread (q3 - q1) / median
against each metric's bound. With --against it also compares the medians
with an earlier set saved by --out: a median may not be worse than the
earlier one by more than its bound, and the share of failed operations
must be the same.

Run from the repository root:

    python3 hea16bench/steady.py --runs 10 --first-seed 1 --out .bench_build/set1.json
    python3 hea16bench/steady.py --runs 10 --first-seed 101 --against .bench_build/set1.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="save the raw results here")
    ap.add_argument("--against", help="compare medians with a set saved by --out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            r = run_once(bench["command"], w, args.first_seed + i, bench["run_seconds"])
            results[w].append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items()))
            print(f"run {i + 1:2d} {w:15s} seed {args.first_seed + i:4d} "
                  f"failed {r['failed']}/{r['attempted']} {vals}", flush=True)

    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    print()
    print(f"{'workload':15s} {'metric':11s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}" + ("  vs earlier median" if earlier else ""))
    for w in names:
        runs = results[w]
        for m in sorted(bounds):
            vals = [r["metrics"][m]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (f"{w:15s} {m:11s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                    f"{spread:7.3f} {bounds[m]:6.2f}")
            if spread > bounds[m]:
                ok = False
                line += "  SPREAD ABOVE BOUND"
            elif spread > bounds[m] / 3:
                line += "  (spread above a third of the bound)"
            if earlier and w in earlier:
                old = statistics.median(r["metrics"][m]["value"] for r in earlier[w])
                shift = med / old - 1
                line += f"  {shift:+.3f}"
                if shift > bounds[m]:
                    ok = False
                    line += " WORSE THAN BOUND"
            print(line)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fail_share = {f / a for f, a in shares}
        print(f"{w:15s} failed share {sorted(fail_share)}, correct {all(r['correct'] for r in runs)}")
        if len(fail_share) != 1 or not all(r["correct"] for r in runs):
            ok = False
        if earlier and w in earlier:
            old = {r["failed"] / r["attempted"] for r in earlier[w]}
            if old != fail_share:
                ok = False
                print(f"{w:15s} failed share differs from earlier set: {sorted(old)}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
