"""One harness for the perf benchmarks: BENCH files and timing.

Every ``BENCH_*.json`` at the repository root carries the same header —
Python version, effective cores, the worker pool's start method and the
``--quick`` flag — and is merged one section at a time, so its tests
may run in any order.

Timings use interleaved minimums: alternate the two workloads being
compared and keep each side's best time.  The minimum of several rounds
converges on the true cost, and interleaving cancels machine-load
drift; a single pair of timings can swing 2x either way on a shared box.
"""

import json
import os
import sys
import time

from repro.sim.workerpool import pool_start_method


def effective_cores():
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def update_bench(path, benchmark, section, payload, quick):
    """Merge ``section`` into the BENCH file at ``path`` under the
    shared header."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.update(benchmark=benchmark, python=sys.version.split()[0],
                effective_cores=effective_cores(),
                start_method=pool_start_method(), quick=quick)
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n")


def interleaved_minimums(first_fn, second_fn, rounds,
                         clock=time.perf_counter):
    """Alternate the two workloads; return each side's best time.

    ``clock`` is wall time by default.  Pass ``time.process_time`` for
    in-process CPU work; never for work done in child processes, which
    the parent's CPU clock does not see.
    """
    first_times, second_times = [], []
    for _ in range(rounds):
        start = clock()
        first_fn()
        first_times.append(clock() - start)
        start = clock()
        second_fn()
        second_times.append(clock() - start)
    return min(first_times), min(second_times)
