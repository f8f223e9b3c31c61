#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload call-r128 --seed 1 \
        --seconds 10 --trace 0

The run builds the C capsule kernel, renders the workload's reference
capture and runs one checked round on it, then renders the inputs
drawn from ``--seed`` and runs timed rounds on them until ``--seconds``
of them have passed (always whole rounds, at least three).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced rounds with rounds that have the per-layer timers installed,
and prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 96, "failed": 0,
     "metrics": {"frames_per_s": {"value": 9.7, "unit": "1/s"}, ...}}

Every file the run writes goes under ``.bench_build/perfbench`` of the
checkout: the compiled kernel, temporary files and the avatar-store
snapshot of the returning-user workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Whole rounds a timed phase runs at least, so ``setup_s`` is a median.
MIN_ROUNDS = 3


def _environment() -> None:
    """Point the program at this checkout and keep its files in it."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(
            f"perfbench: no repro package under {source}; run from the "
            "root of a checkout of the repository"
        )
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(BUILD, "kernels")
    sys.path[:0] = [source, HERE]


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_rounds(run_round, seconds: float, least: int = MIN_ROUNDS):
    """Call ``run_round`` until ``seconds`` have passed (at least
    ``least`` times); returns what each call returned."""
    from probes import CLOCK

    rounds = []
    start = CLOCK.perf_counter()
    while len(rounds) < least or CLOCK.perf_counter() - start < seconds:
        # Each round starts from the same collector state, so a
        # collection the previous round left pending is not charged
        # to this round's set-up.
        gc.collect()
        rounds.append(run_round())
    return rounds


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the program's
    pool and store started, the one helper process that outlives every
    engine."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def frames_per_s(rounds) -> float:
    return sum(r.displays for r in rounds) / sum(r.steady_s for r in rounds)


def end_to_end(rounds, checked) -> dict:
    """The user-visible metrics of the timed rounds."""
    import numpy as np

    latencies = np.array([x for r in rounds for x in r.latencies])
    p50, p90 = np.percentile(latencies, [50, 90]) * 1000.0
    displays = sum(r.displays for r in rounds)
    cpu = sum(r.cpu_own_s + r.cpu_workers_s for r in rounds)
    return {
        "frames_per_s": (frames_per_s(rounds), "1/s"),
        "latency_p50_ms": (float(p50), "ms"),
        "latency_p90_ms": (float(p90), "ms"),
        "cpu_ms_per_frame": (cpu / displays * 1000.0, "ms"),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "peak_rss_mb": (max(r.pss_mb for r in rounds), "MB"),
        "wire_kbps": (checked.wire_kbps, "kbps"),
        "chamfer_mm": (
            statistics.fmean(checked.chamfer_m) * 1000.0, "mm"
        ),
    }


def main(argv=None) -> int:
    args = _arguments(argv)
    _environment()

    from repro.body.model import BodyModel
    from repro.geometry.capsule_kernel import kernel_available

    import layers
    from probes import calibration_seconds, host_line
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            + ", ".join(WORKLOADS)
        )
    # Users compile the kernel once per machine, not once per start.
    kernel_available()
    print(host_line(), flush=True)
    workload = WORKLOADS[args.workload](args.seed, BUILD)
    try:
        workload.prepare(BodyModel())
        checked = workload.run_round(check=True)
        workload.prepare_timed()
        before = calibration_seconds()
        if args.trace:
            # Untraced and traced rounds alternate, so a host that
            # slows down during the run slows both sides alike.
            tracer = layers.Tracer(BUILD)

            def pair():
                plain = workload.run_round(check=False)
                gc.collect()
                with tracer:
                    return plain, workload.run_round(check=False)

            untraced, traced = zip(*timed_rounds(pair, args.seconds, 2))
            metrics = layers.per_layer(
                tracer, traced, workload,
                overhead_pct=(
                    frames_per_s(untraced) / frames_per_s(traced) - 1.0
                ) * 100.0,
            )
            rounds = list(untraced + traced)
        else:
            rounds = timed_rounds(
                lambda: workload.run_round(check=False), args.seconds
            )
            metrics = end_to_end(rounds, checked)
        after = calibration_seconds()
    finally:
        workload.close()
        _stop_resource_tracker()
    print(
        f"calibration: before={before:.4f}s after={after:.4f}s "
        f"rounds={len(rounds)} "
        f"latency_samples={sum(len(r.latencies) for r in rounds)}",
        flush=True,
    )
    problems = checked.problems + [p for r in rounds for p in r.problems]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
