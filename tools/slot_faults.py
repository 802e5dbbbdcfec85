#!/usr/bin/env python3
"""Minor page faults and kernel CPU time per perfbench step.

Runs a built perfbench_sim once per workload (seed 1, 2 s) under
resource.getrusage(RUSAGE_CHILDREN) and prints, per workload, the
steps completed, the minor faults per step and ru_stime. A
--setup-only launch of the same binary is measured first and its faults
are subtracted, so "steady faults/step" is what the measured steps
themselves fault in (process start-up and warm-up excluded); the raw
figure is printed beside it. A step is one slot on the link workloads
and one StepRound on mac_campaign.

Nothing here is timed against a bound. With --max-faults-per-step
WORKLOAD=N (repeatable) the script exits 1 when that workload's steady
faults per step exceed N.

Usage:
  tools/slot_faults.py BIN [--max-faults-per-step W=N ...]
"""

import argparse
import json
import resource
import subprocess
import sys

WORKLOADS = ("wifi_link", "zigbee_link", "mac_campaign")
SEED = 1
SECONDS = 2


def children_usage():
    u = resource.getrusage(resource.RUSAGE_CHILDREN)
    return u.ru_minflt, u.ru_stime, u.ru_utime


def run(cmd):
    """Runs cmd; returns (stdout, minor faults, stime s, utime s)."""
    flt0, sys0, usr0 = children_usage()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    flt1, sys1, usr1 = children_usage()
    return proc.stdout, flt1 - flt0, sys1 - sys0, usr1 - usr0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bin", help="path to a built perfbench_sim")
    parser.add_argument("--max-faults-per-step", action="append", default=[],
                        metavar="W=N")
    args = parser.parse_args()

    limits = {}
    for spec in args.max_faults_per_step:
        name, _, value = spec.partition("=")
        if name not in WORKLOADS or not value:
            parser.error(f"bad --max-faults-per-step {spec!r}")
        limits[name] = float(value)

    failed = False
    print(f"{'workload':<14}{'steps':>8}{'raw flt/step':>14}"
          f"{'steady flt/step':>17}{'stime s':>10}{'stime/cpu':>11}")
    for w in WORKLOADS:
        base = [args.bin, "--workload", w, "--seed", str(SEED)]
        _, setup_flt, _, _ = run(base + ["--seconds", "1", "--setup-only"])
        out, flt, stime, utime = run(
            base + ["--seconds", str(SECONDS), "--trace", "0"])
        result = json.loads(out.strip().splitlines()[-1])
        steps = max(int(result["attempted"]), 1)
        raw = flt / steps
        steady = max(flt - setup_flt, 0) / steps
        cpu = stime + utime
        print(f"{w:<14}{steps:>8}{raw:>14.1f}{steady:>17.1f}{stime:>10.2f}"
              f"{(stime / cpu if cpu > 0 else 0.0):>11.3f}")
        if w in limits and steady > limits[w]:
            print(f"FAIL: {w}: {steady:.1f} steady faults/step "
                  f"> {limits[w]:g}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
