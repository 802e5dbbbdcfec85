#!/usr/bin/env python3
"""Slot-level simulator benchmark: one run of one workload.

    python3 perfbench/run.py --workload wifi_link|zigbee_link|mac_campaign \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_sim (and the simulator
libraries it links) from source into .bench_build/perfbench on first
use, measures set-up time over several fresh launches, runs the
workload, and prints as its last stdout line one JSON object with
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set. An
untraced result is not correct when a fidelity metric moves past its
bound, either way, from perfbench/baseline.json. See
perfbench/README.md for the metric dictionary.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_sim")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BASELINE = os.path.join(HERE, "baseline.json")
FIDELITY = ("tag_goodput_kbps", "delivered_pct")
WORKLOADS = ("wifi_link", "zigbee_link", "mac_campaign")
# Fresh launches timed for setup_s, besides the measured run itself.
SETUP_LAUNCHES = 5
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_sim", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True)


def launch(args, timeout_s):
    """Run perfbench_sim; return (spawn instant ns, stdout lines, result)."""
    spawned_ns = time.monotonic_ns()
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("perfbench_sim timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError("perfbench_sim exited %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("perfbench_sim printed nothing")
    return spawned_ns, lines[:-1], json.loads(lines[-1])


def setup_seconds(spawned_ns, result):
    return (result["first_step_ns"] - spawned_ns) / 1e9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fidelity_problems(workload, seed, result, spec):
    """Two-sided check of the simulated (fidelity) metrics.

    BENCHMARK.json gives each metric one direction, so a change that
    raised goodput or delivery (a receiver leaking ground truth, a broken
    chunk count) would read as a gain. Here a move past the metric's bound
    either way fails the run: against baseline.json's value for this
    seed, or, for a seed it does not hold, against the range of its seeds
    widened by the bound.
    """
    with open(BASELINE) as f:
        recorded = json.load(f)["workloads"][workload]["fidelity"]
    problems = []
    for name in FIDELITY:
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)
        refs = ([recorded[str(seed)][name]] if str(seed) in recorded
                else [r[name] for r in recorded.values()])
        lo = min(refs) * (1 - bound)
        hi = max(refs) * (1 + bound)
        value = result["metrics"][name]["value"]
        if not lo <= value <= hi:
            problems.append("%s %.6g outside [%.6g, %.6g] of baseline.json"
                            % (name, value, lo, hi))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run_args = common + ["--seconds", str(args.seconds),
                         "--trace", str(args.trace)]
    setup = []
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        run_args += ["--trace-out", os.path.join(
            TRACE_DIR, "%s_seed%d.jsonl" % (args.workload, args.seed))]
    else:
        for _ in range(SETUP_LAUNCHES):
            spawned, _, result = launch(
                common + ["--seconds", "1", "--setup-only"], 60)
            setup.append(setup_seconds(spawned, result))

    spawned, table, result = launch(run_args, RUN_TIMEOUT_S)
    for line in table:
        print(line)
    if not args.trace:
        setup.append(setup_seconds(spawned, result))
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup), "unit": "s"}
        print("  %-38s %14.6g s   (median of %d launches)"
              % ("setup_s", statistics.median(setup), len(setup)))

    spec = load_spec()
    metrics = {}
    for declared in spec["per_layer" if args.trace else "end_to_end"]:
        name = declared["name"]
        if name not in result["metrics"]:
            raise BenchError("metric %s missing from %s" % (name, args.workload))
        metrics[name] = {"value": result["metrics"][name]["value"],
                         "unit": declared["unit"]}
    problems = ([] if args.trace else
                fidelity_problems(args.workload, args.seed, result, spec))
    for problem in problems:
        print("  PROBLEM: " + problem)
        log("run.py: " + problem)
    correct = (bool(result["correct"]) and result["failed"] == 0
               and result["attempted"] >= 1 and not problems)
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log("run.py: %s" % e)
        sys.exit(1)
