#!/usr/bin/env python3
"""Runs the serve benchmark over several seeds and reports, per metric, the
median, the quartiles and the quartile spread as a share of the median.

Run from the repository root:

    python3 servebench/spread.py --workload spill-mixed --seeds 1-10 --seconds 10 --trace 0
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(arg):
    lo, _, hi = arg.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seeds_of(args.seeds):
        cmd = ["bash", "servebench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"{'metric':40} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40} {units[name]:6} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")


if __name__ == "__main__":
    main()
