"""Sweep engine scaling: warm-pool parallel vs serial, identical results.

Runs the same quick Stuxnet ensemble through the serial path and the
warm worker pool, asserts the two paths produce bit-identical
per-replica measurements and trace digests, and writes the wall-time
comparison to ``BENCH_sweep.json`` at the repository root so CI can
track the perf trajectory across PRs.

Timing uses the shared harness's interleaved minimums
(``benchmarks/_bench.py``) on wall clock: a process pool does its work
in *children*, which the parent's CPU clock never sees.

A warm-up round runs first, so the timed rounds measure the steady
state the warm pool exists for: spec already shipped, compile caches
hot, pool reused round after round (``pool_reused`` is asserted).

The >= 1.5x speedup floor is asserted with 2 workers wherever 2+ cores
are actually available (CI runners have 4); on a single effective core
a process pool is physically pure overhead and only the identity
guarantees and the benchmark artefact are checked.  ``--quick``
shrinks the replica count so CI finishes in seconds.
"""

from pathlib import Path

from _bench import effective_cores, interleaved_minimums, update_bench

from repro.core.ensemble import CampaignSpec
from repro.sim.sweep import SweepConfig, run_sweep
from repro.sim.workerpool import pool_start_method

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"

#: Acceptance criterion: warm-pool parallel dispatch with 2 workers
#: must beat serial by at least this factor on the quick workload.
SPEEDUP_FLOOR = 1.5

#: Cores the floor needs to be meaningful: 2 workers want 2 cores.
MIN_CORES_FOR_SPEEDUP = 2

WORKERS = 2
BASE_SEED = 2013


def test_sweep_scaling_serial_vs_warm_pool(quick):
    replicas = 6 if quick else 16
    rounds = 3 if quick else 5
    cores = effective_cores()
    spec = CampaignSpec.quick("stuxnet")

    serial_config = SweepConfig(replicas=replicas, workers=1,
                                mode="serial", base_seed=BASE_SEED)
    # chunk_size=1 + fallback=False pins the pure pool path: no serial
    # probe inside the timed region, every replica through a worker.
    parallel_config = SweepConfig(replicas=replicas, workers=WORKERS,
                                  mode="parallel", base_seed=BASE_SEED,
                                  chunk_size=1, fallback=False)

    # Warm-up round: ships the spec, builds the shared pool, fills the
    # compile caches — and proves the engine's core guarantee before
    # any timing: the pool changes wall time, never results.
    serial = run_sweep(spec, serial_config)
    parallel = run_sweep(spec, parallel_config)
    assert serial.measurements() == parallel.measurements()
    assert serial.digests() == parallel.digests()
    assert [r.seed for r in serial.replicas] == \
        [r.seed for r in parallel.replicas]
    assert parallel.dispatch["path"] == "warm-pool"

    reused = []

    def timed_parallel():
        result = run_sweep(spec, parallel_config)
        reused.append(result.dispatch["pool_reused"])

    serial_s, parallel_s = interleaved_minimums(
        lambda: run_sweep(spec, serial_config),
        timed_parallel,
        rounds,
    )
    # The steady state being measured is the *warm* pool: every timed
    # round must have reused the pool the warm-up round built.
    assert all(reused)

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    asserted = cores >= MIN_CORES_FOR_SPEEDUP
    payload = {
        "campaign": "stuxnet",
        "replicas": replicas,
        "workers": WORKERS,
        "chunk_size": 1,
        "rounds": rounds,
        "pool_reused_every_round": all(reused),
        "serial_wall_seconds": serial_s,
        "parallel_wall_seconds": parallel_s,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": asserted,
        "identical_measurements": True,
        "mean_replica_wall_seconds": (
            sum(r.wall_seconds for r in serial.replicas) / replicas),
        "events_dispatched_total": (
            sum(r.events_dispatched for r in serial.replicas)),
    }
    # The artefact lands before the floor assertion on purpose: a slow
    # run must still leave the measurement for the CI upload to find.
    update_bench(BENCH_PATH, "sweep-scaling", "scaling", payload, quick)

    print()
    print("sweep scaling (%d replicas, %d effective cores, %s): "
          "serial %.2fs, warm-pool %.2fs with %d workers -> %.2fx"
          % (replicas, cores, pool_start_method(), serial_s, parallel_s,
             WORKERS, speedup))
    print("wrote %s" % BENCH_PATH)

    if asserted:
        assert speedup >= SPEEDUP_FLOOR, (
            "warm-pool sweep only %.2fx faster than serial on %d "
            "effective cores (floor: %.1fx)"
            % (speedup, cores, SPEEDUP_FLOOR))
