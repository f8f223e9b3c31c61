"""Host facts and process probes shared by every workload.

Everything here reads the benchmark's own processes: the wall clock is
a private :class:`repro.obs.clock.SystemClock` (never the process-wide
active clock a test could have swapped), CPU time comes from
``os.times`` for this process and from ``/proc/<pid>/stat`` for live
pool workers, and memory from ``/proc/<pid>/smaps_rollup``
proportional set sizes, so pages a forked worker shares with the
parent are counted once.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.obs.clock import SystemClock

CLOCK = SystemClock()

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "REPRO_BATCH_THREADS",
)


def host_line() -> str:
    """Core count, capsule-kernel backend and thread settings."""
    from repro.geometry.capsule_kernel import batch_threads, \
        kernel_available

    settings = " ".join(
        f"{name}={os.environ.get(name, 'unset')}" for name in _THREAD_VARS
    )
    return (
        f"host: cores={os.cpu_count()} "
        f"kernel={'C' if kernel_available() else 'NumPy'} "
        f"batch_threads={batch_threads()} {settings}"
    )


def calibration_seconds(iterations: int = 2_000_000) -> float:
    """Time of a fixed pure-Python loop; a slow or crowded host shows
    as a larger figure before or after the timed phase."""
    start = CLOCK.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    elapsed = CLOCK.perf_counter() - start
    if total < 0:  # keeps the loop from being optimised away
        raise AssertionError
    return elapsed


def worker_pids() -> list:
    """Live child processes started through ``multiprocessing`` (the
    reconstruction pool's workers)."""
    return [child.pid for child in multiprocessing.active_children()]


def _proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime and stime are fields 14 and 15; the split starts at 3.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds(pids) -> tuple:
    """(this process, given workers) CPU seconds so far."""
    times = os.times()
    return (
        times.user + times.system,
        {pid: _proc_cpu_seconds(pid) for pid in pids},
    )


def cpu_between(before: tuple, after: tuple) -> tuple:
    """(own, workers) CPU seconds spent between two readings; a worker
    present only in ``after`` started in between and counts whole."""
    own = after[0] - before[0]
    workers = sum(
        seconds - before[1].get(pid, 0.0)
        for pid, seconds in after[1].items()
    )
    return own, workers


def pss_mb(pids) -> float:
    """Summed proportional set size of this process and ``pids``."""
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
