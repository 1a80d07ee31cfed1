#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload intra --runs 10 [--seconds 10] [--trace 0]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
With --json it writes the same figures as one JSON object, the form
perfbench/baseline.json records.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, units, bad = {}, {}, 0
    for i in range(args.runs):
        res = run_once(args.workload, args.first_seed + i, seconds, args.trace)
        if not res["correct"] or res["failed"]:
            bad += 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {args.first_seed + i}: " + json.dumps(res), file=sys.stderr)
    summary = {}
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name), "runs": len(vs)}
    if args.json:
        print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": seconds,
                          "trace": args.trace, "incorrect_runs": bad, "metrics": summary}, indent=1))
        return
    print(f"{args.workload}: {args.runs} runs of {seconds} s, {bad} incorrect")
    for name, s in summary.items():
        bound = "" if s["bound"] is None else f"bound {s['bound']:.2f}"
        print(f"  {name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.3f} {bound}")


if __name__ == "__main__":
    main()
