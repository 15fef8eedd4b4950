#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), using
statistics.quantiles(values, n=4).

    python3 perfbench/steadiness.py --runs 10 --out steadiness.json recon-clean serve-mix

Run it from the root of a checkout. With no workload named it runs every
workload of BENCHMARK.json; workloads are interleaved run by run, so a
slow drift of the host's speed spreads over all of them alike.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    wall = time.time() - t0
    return json.loads(out.strip().splitlines()[-1]), wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    samples = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(a.runs):
        seed = a.first_seed + i
        for w in workloads:
            res, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
            samples[w].append(res)
            walls[w].append(wall)
            print(f"{w} seed {seed}: {wall:.1f}s attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}", file=sys.stderr)
    report = {}
    for w in workloads:
        runs = samples[w]
        metrics = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds.get(name)
            metrics[name] = s
        report[w] = {
            "runs": len(runs),
            "seeds": list(range(a.first_seed, a.first_seed + a.runs)),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "wall_s_median": statistics.median(walls[w]),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"{w:13s} {name:17s} median {s['median']:.6g} spread {100 * s['spread']:.2f}%"
                  f" bound {s['bound']}{flag}", file=sys.stderr)
    text = json.dumps(report, indent=1, sort_keys=True)
    if a.out:
        with open(a.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
