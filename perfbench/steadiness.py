#!/usr/bin/env python3
"""Measure the run-to-run spread behind the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 --out steadiness-run.json

For each workload, runs `perfbench/run.py --trace 0` once per seed, in
`--sets` consecutive sets, and prints for every end-to-end metric the
median, quartiles, minimum and maximum of the per-seed values, the spread
(interquartile distance over the median) against the metric's bound, and
the drift of each later set's median from the first set's in the
metric's worse direction. A spread must stay within the bound (a third of
it to count as steady); setup_s is exempt from the spread rule but not
from the drift rule.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, parse_last_json, parse_seeds


def summarize(values):
    """Median, quartiles, extremes and relative spread of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / statistics.median(values),
    }


def drift(first_median, later_median, better):
    """How much worse `later_median` is than `first_median`, as a share."""
    change = (later_median - first_median) / first_median
    return change if better == "lower" else -change


def verdict(metric, summaries, drifts):
    """'steady', 'within bound' or 'too noisy' for one metric over its sets."""
    bound = metric["bound"]
    spread = 0.0 if metric["name"] == "setup_s" else max(s["spread"] for s in summaries)
    worst = max(drifts, default=0.0)
    if spread > bound or worst > bound:
        return "too noisy"
    if spread > bound / 3 or worst > bound / 3:
        return "within bound"
    return "steady"


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu": model, "machine": platform.machine()}


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = parse_last_json(r.stdout)
    if r.returncode != 0 or result is None:
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="LO-HI, inclusive")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated; default every workload")
    ap.add_argument("--seconds", type=float, help="default BENCHMARK.json's run_seconds")
    ap.add_argument("--out", help="write the full record here as JSON")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = list(parse_seeds(args.seeds))
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    record = {"host": host(), "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_one(workload, seed, seconds))
                print(f"{workload} set {s + 1} seed {seed}: {runs[-1]}", file=sys.stderr,
                      flush=True)
            sets.append(runs)
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summaries = [summarize([r[name] for r in runs]) for runs in sets]
            drifts = [drift(summaries[0]["median"], s["median"], metric["better"])
                      for s in summaries[1:]]
            rows[name] = {"bound": metric["bound"], "sets": summaries, "drift": drifts,
                          "verdict": verdict(metric, summaries, drifts)}
            spreads = " ".join(f"{s['spread']:.4f}" for s in summaries)
            print(f"{workload:14} {name:13} median {summaries[0]['median']:.6g} "
                  f"spread {spreads} drift {[round(d, 4) for d in drifts]} "
                  f"bound {metric['bound']} -> {rows[name]['verdict']}")
        record["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
