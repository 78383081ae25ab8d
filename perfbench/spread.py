#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

For every metric: the median over the seeds and the distance between the
first and third quartiles as a share of that median (the steadiness
measure BENCHMARK.json's bounds are checked against).

    python3 perfbench/spread.py --workload comfort-campaign --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)

    print(f"\n{args.workload}: {len(seed_list(args.seeds))} seeds")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"  {name:32s} median {med:12.6g}  iqr/median {spread:7.3f}")


if __name__ == "__main__":
    main()
