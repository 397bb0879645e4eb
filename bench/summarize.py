#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric.

    python3 bench/summarize.py --workload preset_warm --seeds 1-10

Each seed is one `bench/run.py` process, run as a benchmark driver runs
it, for BENCHMARK.json's run_seconds. For every metric the summary gives
the median, the first and third quartiles (statistics.quantiles, n=4)
and their distance as a share of the median; this is how the reference
figures in bench/README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed} ({wall:.0f} s): correct={res['correct']} "
              f"attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:28s} median {med:12.6g} {unit:6s} "
              f"Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
