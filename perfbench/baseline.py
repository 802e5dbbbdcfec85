#!/usr/bin/env python3
"""Measure the benchmark twice over seeds 1-10 and write baseline.json.

    python3 perfbench/baseline.py

Run from the repository root. It makes two run sets. A set is one
untraced run of every workload in BENCHMARK.json on each of seeds 1-10,
for run_seconds each, with the workloads interleaved seed by seed so
that a slow phase of the host hits every workload alike. For each set,
workload and end-to-end metric it records the ten values, their median,
quartiles and spread (Q3 - Q1) / median, the quartiles as
statistics.quantiles(values, n=4) gives them. It then records how much
worse the second set's median is than the first's. A spread (setup_s
excepted) or a drift above the metric's bound marks the benchmark as
not holding its bounds, and the script exits 1 after writing the file.

baseline.json also keeps, per seed, the fidelity metrics run.py checks
against and the outputs digest, and one traced run's per-layer table
per workload (seed 1).
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
SEEDS = list(range(1, 11))
SETS = 2
FIDELITY = ("tag_goodput_kbps", "delivered_pct")


def run(workload, seed, seconds, trace):
    started = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: incorrect result\n%s"
                 % (workload, seed, proc.stdout[-3000:] + proc.stderr[-3000:]))
    digest = next((" ".join(l.split()[2:4]) for l in lines
                   if "outputs digest" in l), "")
    return result, digest, time.time() - started


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f
                         if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "system": platform.platform()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: [{} for _ in range(SETS)] for w in workloads}
    fidelity = {w: {} for w in workloads}
    digests = {w: {} for w in workloads}
    for s in range(SETS):
        for seed in SEEDS:
            for w in workloads:
                result, digest, took = run(w, seed, seconds, 0)
                got = {k: v["value"] for k, v in result["metrics"].items()}
                for name, value in got.items():
                    values[w][s].setdefault(name, []).append(value)
                seen = {k: got[k] for k in FIDELITY}
                if fidelity[w].setdefault(str(seed), seen) != seen or \
                        digests[w].setdefault(str(seed), digest) != digest:
                    sys.exit("%s seed %d: outputs differ between sets" % (w, seed))
                print("set %d %s seed %d (%.0f s): %s" % (
                    s + 1, w, seed, took,
                    " ".join("%s=%.5g" % kv for kv in got.items())), flush=True)

    out = {"host": host(), "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    holds = True
    for w in workloads:
        sets = [{name: summarize(vals) for name, vals in values[w][s].items()}
                for s in range(SETS)]
        drift = {}
        for name, m in metrics.items():
            first = sets[0][name]["median"]
            last = sets[-1][name]["median"]
            worse = (last - first) if m["better"] == "lower" else (first - last)
            drift[name] = worse / first if first else 0.0
            spreads = [st[name]["spread"] for st in sets]
            ok = drift[name] <= m["bound"] and (
                name == "setup_s" or max(spreads) <= m["bound"])
            holds &= ok
            print("%-13s %-18s spreads %s drift %+.4f (bound %.2f)%s" % (
                w, name, " ".join("%.4f" % x for x in spreads), drift[name],
                m["bound"], "" if ok else "  OUT OF BOUND"), flush=True)
        traced, _, _ = run(w, SEEDS[0], seconds, 1)
        out["workloads"][w] = {
            "sets": sets,
            "drift": drift,
            "fidelity": fidelity[w],
            "digests": digests[w],
            "per_layer_seed%d" % SEEDS[0]: {
                k: v["value"] for k, v in traced["metrics"].items()},
        }
    out["within_bounds"] = holds
    with open(OUT, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("wrote %s; %s" % (OUT, "within bounds" if holds else "OUT OF BOUNDS"))
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
