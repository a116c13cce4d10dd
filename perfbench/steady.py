#!/usr/bin/env python3
"""Shows whether the benchmark is steady.

Runs the benchmark command of BENCHMARK.json in sets of runs, each run with
its own seed, and prints for every end-to-end metric of each workload each
set's median and quartiles, the spread (interquartile distance over the
median) against a third of the metric's bound, and the drift of the second
set's median from the first's against the bound. With several workloads,
the first set of every workload runs before any second set, so the two sets
of one workload are taken apart in time. Run it from the root of the
checkout:

    python3 perfbench/steady.py --workload lib-read --workload http-read
    python3 perfbench/steady.py --workload lib-read --sets 1 --runs 5

It exits 1 when a spread exceeds its bound, a median drifts past its bound,
the failed share differs between sets, or a run is wrong or does not
finish.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"seed {seed}: exit code {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"seed {seed}: wrong output")
    return res, took


def quartiles(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def report(workload, metrics, sets):
    """Prints one workload's table and returns whether every check held."""
    ok = True
    print(f"\n{workload}")
    print(f"{'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound/3':>7} {'drift':>7} {'bound':>6}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        meds = []
        for i, runs in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2
            meds.append(q2)
            flag = ""
            if spread > bound:
                flag, ok = " SPREAD", False
            elif spread > bound / 3:
                flag = " wide"
            drift = ""
            if i == 1:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                drift = f"{worse:+7.3f}"
                if worse > bound:
                    flag, ok = flag + " DRIFT", False
            print(f"{name:<14} {i + 1:>3} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound / 3:>7.3f} {drift:>7} {bound:>6}{flag}")
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    print(f"failed share per set: {shares}")
    if len(sets) == 2 and shares[0] != shares[1]:
        ok = False
        print("FAILED SHARE DIFFERS")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--seed", type=int, default=1000, help="first seed")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = {w: [] for w in a.workload}
    for s in range(a.sets):
        for w in a.workload:
            runs = []
            seed = a.seed + s * a.runs
            for _ in range(a.runs):
                res, took = run_once(bench["command"], w, seed, seconds)
                print(f"{w} set {s + 1} seed {seed}: {took:5.1f}s  " + "  ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), flush=True)
                runs.append(res)
                seed += 1
            sets[w].append(runs)

    ok = True
    for w in a.workload:
        ok = report(w, metrics, sets[w]) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
