#!/usr/bin/env python3
"""Steadiness report: run one workload N times and summarise.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload call-r128 --runs 10 \
        --seconds 10 [--first-seed 1] [--trace 0]

Each run is a separate ``perfbench/run.py`` process with its own seed
(``first-seed``, ``first-seed + 1``, ...).  The report prints every
run's host and calibration lines, then per metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the relative spread ``(q3 - q1) / median``, plus the failed share of
attempted operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One benchmark process; returns (its printed lines, result)."""
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(
            f"steady: run with seed {seed} exited {completed.returncode}"
        )
    return lines[:-1], json.loads(lines[-1])


def summarise(results) -> list:
    """Rows of (metric, unit, median, q1, q3, spread)."""
    rows = []
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        rows.append((name, first["unit"], median, q1, q3, spread))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    results = []
    for offset in range(args.runs):
        seed = args.first_seed + offset
        lines, result = run_once(
            args.workload, seed, args.seconds, args.trace
        )
        for line in lines:
            print(f"seed {seed}: {line}")
        print(f"seed {seed}: " + " ".join(
            f"{name}={item['value']:.4g}"
            for name, item in result["metrics"].items()
        ))
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks")
        results.append(result)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':32s} {'unit':>6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for name, unit, median, q1, q3, spread in summarise(results):
        print(f"{name:32s} {unit:>6s} {median:12.4f} {q1:12.4f} "
              f"{q3:12.4f} {spread:8.3f}")
    shares = sorted(
        {r["failed"] / r["attempted"] for r in results}
    )
    print(f"failed share of attempted: "
          f"{', '.join(f'{s:.6f}' for s in shares)}")
    print(f"all outputs correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
