#!/usr/bin/env python3
"""Host-cost benchmark of the trading-network simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload d1-leafspine --seed 1 --seconds 30 --trace 0

Builds the `tn-perfbench` package next to this file (release, offline),
then, for `--seconds` seconds, runs the workload in fresh processes and
checks every run against the values pinned in `pins.json`. The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1` (see README.md).

The exit code is 0 when every check passed, 1 when a run failed a check,
and 2 when the benchmark could not run at all (no printed result).

    python3 perfbench/run.py --write-pins 0-130

re-derives `pins.json` from the current code; only a change that means to
move the simulated results may do that.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("d1-leafspine", "d3-l1-fanout", "metro-swarm")
DESIGNS = ("d1-leafspine", "d3-l1-fanout")

# A run with seed n measures the SCENARIOS scenarios seeded n, n+1, ...:
# one untimed warm-up run, then timed runs cycling through the scenarios,
# each preceded by SETUPS_PER_REP set-up runs, for at least MIN_REPS runs
# and --seconds seconds.
SCENARIOS = 4
MIN_REPS = 8
SETUPS_PER_REP = 2
# Host time drifts by up to 2x over minutes on a shared host. Every timed
# repetition is divided by the mean of the calibration kernel's times
# just before and just after it (src/calibrate.rs), then scaled to a host
# on which that kernel takes CALIBRATION_REF_S seconds.
CALIBRATION_REF_S = 0.05
# A run, build excluded, must end within RUN_LIMIT_S: it starts no
# repetition it expects to overrun, and a child still running at the
# limit is killed.
RUN_LIMIT_S = 170

# The swarm bypasses these layers entirely: every count and ratio of
# theirs must read 0 there (their `_ns` micro-measurements still run).
SWARM_ZERO_PREFIXES = ("switch.", "market.", "feed.", "trading.")


# When the running measurement must end; set once the build is done.
deadline = None


def time_left():
    """Seconds until the deadline (at least 1), or None before it is set."""
    return None if deadline is None else max(1.0, deadline - time.monotonic())


class BenchError(Exception):
    """The benchmark cannot run at all (build failure, missing file)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build tn-perfbench; return the path of the executable."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"cargo build failed: {e}") from e
    if r.returncode != 0:
        raise BenchError(f"cargo build exited with {r.returncode}")
    return os.path.join(target, "release", "tn-perfbench")


def parse_last_json(stdout):
    """The JSON object on the last non-empty line of `stdout`, or None."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def child(binary, command, workload, seed, *extra):
    """Run one tn-perfbench measurement; returns (result, error)."""
    cmd = [binary, command, "--workload", workload, "--seed", str(seed), *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=time_left())
    except subprocess.TimeoutExpired:
        return None, f"{command}: still running at the {RUN_LIMIT_S} s limit"
    if r.returncode != 0:
        tail = r.stderr.strip().splitlines()[-3:]
        return None, f"{command}: exit {r.returncode}: {' / '.join(tail)}"
    result = parse_last_json(r.stdout)
    if result is None:
        return None, f"{command}: no JSON result line"
    return result, None


def load_pins():
    try:
        with open(PINS) as f:
            return json.load(f)["pins"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read {PINS}: {e}") from e


def pin_for(pins, workload, seed):
    return pins.get(workload, {}).get(str(seed))


def check_outcome(workload, outcome, pin, reference=None):
    """Problems with one workload run's outcome, as a list of strings.

    Every run must keep the invariants E18 asserts (no frame dropped,
    orders flowing on the designs), match the pinned digest, event count
    and lost-record count when the seed is pinned, and repeat `reference`
    (an earlier run of the same seed) exactly.
    """
    problems = []
    if outcome.get("frames_dropped") != 0:
        problems.append(f"{outcome.get('frames_dropped')} frames dropped")
    if outcome.get("events", 0) <= 0:
        problems.append("no events dispatched")
    if workload in DESIGNS:
        for key in ("orders_sent", "acks", "feed_messages"):
            if outcome.get(key, 0) <= 0:
                problems.append(f"{key} is {outcome.get(key)}: orders are not flowing")
    if pin is not None:
        for key in ("digest", "events", "records_lost"):
            if outcome.get(key) != pin[key]:
                problems.append(f"{key} {outcome.get(key)} != pinned {pin[key]}")
    if reference is not None and outcome != reference:
        problems.append("outcome differs from an earlier run of the same seed")
    return problems


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def result(self, metrics):
        for p in self.problems[:20]:
            log(f"FAILED {p}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def scenario_seeds(seed):
    """The scenarios one run measures: seeds `seed` .. `seed + SCENARIOS - 1`."""
    return [seed + k for k in range(SCENARIOS)]


def calibrate(binary):
    """Host seconds of one pass of the calibration kernel, in its own process."""
    try:
        r = subprocess.run([binary, "calibrate"], cwd=ROOT, capture_output=True, text=True,
                           timeout=time_left())
    except subprocess.TimeoutExpired as e:
        raise BenchError("calibration timed out") from e
    result = parse_last_json(r.stdout)
    if r.returncode != 0 or result is None:
        raise BenchError(f"calibration failed: exit {r.returncode}")
    return result["calibration_s"]


def measure(binary, workload, seed, seconds, pins):
    """The untraced part: end-to-end metrics over `seconds` of runs.

    Repetitions cycle through the run's scenario seeds and stop only after
    a whole cycle, so every run measures each scenario equally often. Each
    repetition's times are calibrated by the kernel timed just before and
    just after it.
    """
    seeds = scenario_seeds(seed)
    unpinned = [s for s in seeds if pin_for(pins, workload, s) is None]
    if unpinned:
        log(f"{workload} seeds {unpinned} are not pinned: checking invariants and repeatability")
    tally = Tally()
    # Digests seen per scenario seed: pinned, or from the first run of it.
    references = {s: pin_for(pins, workload, s) for s in seeds}
    walls, rates, rss, setups = [], [], [], []

    def run_once(s):
        result, error = child(binary, "run", workload, s)
        if error:
            tally.record("run", [error])
            return None
        outcome = result["outcome"]
        ref = references[s]
        tally.record(f"run of seed {s}", check_outcome(workload, outcome, ref))
        references[s] = ref or {**outcome, "setup_digest": None}
        return result

    def setup_once(s):
        result, error = child(binary, "setup", workload, s)
        if error:
            tally.record("setup", [error])
            return None
        problems = []
        expected = references[s] and references[s].get("setup_digest")
        if expected and result["digest"] != expected:
            problems.append(f"digest {result['digest']} != {expected}")
        if references[s] and not expected:
            references[s]["setup_digest"] = result["digest"]
        tally.record(f"setup of seed {s}", problems)
        return result["setup_s"]

    start = time.monotonic()
    run_once(seeds[0])
    cal_before = calibrate(binary)
    rep = 0
    while True:
        s = seeds[rep % SCENARIOS]
        rep_setups = [setup_once(s) for _ in range(SETUPS_PER_REP)]
        result = run_once(s)
        cal_after = calibrate(binary)
        scale = CALIBRATION_REF_S / ((cal_before + cal_after) / 2)
        cal_before = cal_after
        setups.extend(x * scale for x in rep_setups if x is not None)
        if result is not None:
            wall = result["wall_s"] * scale
            walls.append(wall)
            rates.append(result["outcome"]["events"] / wall)
            rss.append(result["peak_rss_kib"] / 1024)
        rep += 1
        elapsed = time.monotonic() - start
        if rep % SCENARIOS == 0 and elapsed >= seconds and (rep >= MIN_REPS or tally.failed):
            break
        if time.monotonic() + elapsed / rep > deadline:
            break
    if not walls or not setups:
        return tally.result({})
    return tally.result({
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "events_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
    })


def check_traced(workload, trace, layer_names):
    """Problems with a traced run's output, as a list of strings."""
    problems = []
    metrics = trace.get("metrics", {})
    if sorted(metrics) != sorted(layer_names):
        missing = sorted(set(layer_names) - set(metrics))
        extra = sorted(set(metrics) - set(layer_names))
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"missing {missing}, unexpected {extra}")
    if workload == "metro-swarm":
        for name, value in metrics.items():
            if name.startswith(SWARM_ZERO_PREFIXES) and not name.endswith("_ns") and value:
                problems.append(f"{name} is {value} on the swarm, which bypasses that layer")
    return problems


def traced(binary, workload, seed, seconds, pins, layers):
    """The traced part: per-layer metrics of one traced run."""
    pin = pin_for(pins, workload, seed)
    tally = Tally()
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{workload}-{seed}.jsonl")
    result, error = child(binary, "trace", workload, seed,
                          "--seconds", str(seconds), "--spans", spans)
    if error:
        tally.record("trace", [error])
        return tally.result({})
    untraced = result["untraced"]
    tally.record("untraced run", check_outcome(workload, untraced, pin))
    for outcome in result["traced"]:
        # The profiler and registry are digest-neutral: the traced run must
        # repeat the untraced one exactly.
        tally.record("traced run", check_outcome(workload, outcome, pin, untraced))
    failed = result["failed"]
    for k in range(result["checks"]):
        tally.record("layer check", failed[k:k + 1])
    tally.record("per-layer output", check_traced(workload, result, list(layers)))
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in layers.items() if name in result["metrics"]}
    return tally.result(metrics)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def write_pins(binary, seeds):
    """Re-derive pins.json for `seeds` from the current code."""
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in seeds:
            run, error = child(binary, "run", workload, seed)
            if error:
                raise BenchError(f"{workload} seed {seed}: {error}")
            setup, error = child(binary, "setup", workload, seed)
            if error:
                raise BenchError(f"{workload} seed {seed}: {error}")
            outcome = run["outcome"]
            problems = check_outcome(workload, outcome, None)
            if problems:
                raise BenchError(f"{workload} seed {seed}: {problems}")
            pins[workload][str(seed)] = {
                "digest": outcome["digest"],
                "events": outcome["events"],
                "records_lost": outcome["records_lost"],
                "setup_digest": setup["digest"],
            }
            log(f"pinned {workload} seed {seed}: {outcome['digest']} {outcome['events']} events")
    doc = {
        "about": "Simulated results per workload and seed; a speed-only change must "
                 "reproduce every one. Seed 1 is the main seed, seed 2 the held-out one.",
        "pins": pins,
    }
    with open(PINS, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", metavar="LO-HI",
                    help="re-derive pins.json for these seeds and exit")
    args = ap.parse_args(argv)
    try:
        bench = load_benchmark()
        binary = build()
        if args.write_pins:
            write_pins(binary, parse_seeds(args.write_pins))
            return 0
        deadline = time.monotonic() + RUN_LIMIT_S
        if args.workload is None:
            raise BenchError("--workload is required")
        pins = load_pins()
        if args.trace:
            layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
            result = traced(binary, args.workload, args.seed, args.seconds, pins, layers)
        else:
            result = measure(binary, args.workload, args.seed, args.seconds, pins)
    except BenchError as e:
        log(str(e))
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
