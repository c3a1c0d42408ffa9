"""Repeat mode: run each workload K times and judge the spread.

    python3 bench/repeat.py --runs 10 --seed 100 [--workload cli-mix ...]

Run i uses seed SEED + i. For every end-to-end metric the report gives the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, and says whether the spread fits the metric's
bound in BENCHMARK.json and whether it is below a third of it. Runs are
sequential, one at a time, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """The result line of one run, with the run's wall time added."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or names:
        results = [run_once(workload, args.seed + i, args.seconds)
                   for i in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: {args.runs} runs of {args.seconds} s, seeds "
              f"{args.seed}..{args.seed + args.runs - 1}, "
              f"{failed} failed of {sum(r['attempted'] for r in results)}, "
              f"wall {min(walls):.0f}-{max(walls):.0f} s a run", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, frac = spread(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": frac,
                          "bound": bound, "fits": frac <= bound,
                          "steady": frac < bound / 3, "values": values}
            print(f"  {name:12s} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {frac:7.2%}  bound {bound:.0%}  "
                  f"{'fits' if frac <= bound else 'TOO WIDE'}"
                  f"{'' if frac < bound / 3 else ' (above a third)'}",
                  flush=True)
        summary[workload] = {"failed": failed, "wall_s": walls,
                             "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
