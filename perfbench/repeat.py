#!/usr/bin/env python3
"""Run one workload N times, one seed each, and summarize every metric.

    python3 perfbench/repeat.py --workload learn --runs 10 --seed0 1

Each run is a fresh process (``run.py``), so every set-up is cold.  For each
metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median; it
also gives the share of failed ops over all runs.  The bounds in
``BENCHMARK.json`` were set from this output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    results = []
    for seed in range(args.seed0, args.seed0 + args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()), file=sys.stderr)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload {args.workload}: {len(results)} runs, {failed}/{attempted} ops failed, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':<36} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<36} {m['unit']:<8} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
