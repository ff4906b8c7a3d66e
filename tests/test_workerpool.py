"""Pool lifecycle regressions for the warm sweep worker pool.

The warm pool trades per-sweep pool churn for a long-lived resource,
which creates exactly one new failure class: leaked worker processes.
These tests pin the lifecycle contract from
:func:`repro.sim.sweep._dispatch_warm_pool`:

* a *replica* error (caught worker-side) raises the typed
  :class:`SweepWorkerError` and leaves the warm pool healthy and
  reusable;
* anything escaping mid-dispatch — a manifest write raising,
  ``KeyboardInterrupt``, a worker *process* dying — terminates the
  pool outright, so no worker survives a failed sweep;
* the shared pool is genuinely reused across sweeps, and
  ``shutdown_shared_pool`` (the atexit hook) reaps it;
* supervised sweeps run on the same pool: they reuse it, replace the
  workers they kill, and charge a worker found dead at dispatch as a
  crash attempt instead of letting the broken pipe escape.
"""

import multiprocessing
import time

import pytest

from repro.core.ensemble import CampaignSpec, replica_seed, run_replica
from repro.core.resume import SweepCheckpoint
from repro.sim.errors import SweepWorkerError
from repro.sim.supervisor import ChaosPlan, SupervisorConfig
from repro.sim.sweep import SweepConfig, run_sweep
from repro.sim.workerpool import (
    WarmPool,
    decode_replica_row,
    encode_replica_row,
    shared_pool,
    shutdown_shared_pool,
)

SPEC = CampaignSpec.quick("stuxnet-epidemic")

#: A spec whose replicas are guaranteed to raise inside the worker:
#: the fault profile rejects the unknown parameter at build time.
POISON_SPEC = CampaignSpec.quick("stuxnet", fault_profile="flaky-network",
                                 fault_params={"bogus": 1})


def warm_worker_count(timeout=3.0, prefix="sweep-warm-"):
    """Live ``prefix*`` children, waiting briefly for reaping."""
    deadline = time.monotonic() + timeout
    while True:
        workers = [process for process in multiprocessing.active_children()
                   if process.name.startswith(prefix)]
        count = len(workers)
        if count == 0 or time.monotonic() >= deadline:
            return count
        time.sleep(0.05)


@pytest.fixture(autouse=True)
def reset_shared_pool():
    """Each test starts and ends with no shared pool (and no leaks)."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()
    assert warm_worker_count() == 0


def pool_config(**overrides):
    defaults = dict(replicas=4, workers=2, mode="parallel", base_seed=42,
                    fallback=False, chunk_size=1)
    defaults.update(overrides)
    return SweepConfig(**defaults)


# -- reuse ---------------------------------------------------------------------

def test_shared_pool_is_reused_across_sweeps():
    first = run_sweep(SPEC, pool_config())
    second = run_sweep(SPEC, pool_config())
    assert first.dispatch["pool_reused"] is False
    assert second.dispatch["pool_reused"] is True
    assert first.digests() == second.digests()
    # The pool is alive between sweeps — that is the whole point.
    assert warm_worker_count(timeout=0.0) == 2


def test_changing_the_key_swaps_the_pool_without_leaking():
    run_sweep(SPEC, pool_config())
    swapped = run_sweep(SPEC, pool_config(base_seed=43))
    assert swapped.dispatch["pool_reused"] is False
    # The stale pool was closed when the key changed: only the new
    # pool's workers remain.
    assert warm_worker_count(timeout=0.0) == 2


def test_private_pool_is_closed_with_its_sweep():
    result = run_sweep(SPEC, pool_config(pool_warm=False))
    assert result.dispatch["pool_reused"] is False
    assert warm_worker_count() == 0


# -- failure lifecycle ---------------------------------------------------------

def test_worker_replica_error_raises_typed_error_and_keeps_pool_warm():
    with pytest.raises(SweepWorkerError) as excinfo:
        run_sweep(POISON_SPEC, pool_config())
    error = excinfo.value
    assert error.kind == "TypeError"
    assert error.index in range(4)
    assert error.pool_broken is False
    # The workers caught the replica error at the chunk boundary and
    # stayed healthy: the warm pool survives for the next sweep.
    assert warm_worker_count(timeout=0.0) == 2


def test_record_callback_exception_terminates_pool(tmp_path, monkeypatch):
    original = SweepCheckpoint.record
    recorded = []

    def explode_on_second(self, replica):
        original(self, replica)
        recorded.append(replica.index)
        if len(recorded) == 2:
            raise RuntimeError("manifest write blew up")

    monkeypatch.setattr(SweepCheckpoint, "record", explode_on_second)
    with pytest.raises(RuntimeError):
        run_sweep(SPEC, pool_config(),
                  checkpoint_dir=str(tmp_path / "sweep"))
    monkeypatch.undo()
    # Chunks were in flight when the exception escaped: the pool must
    # be terminated, not left warm (its workers may be mid-replica).
    assert warm_worker_count() == 0
    # A fresh sweep after the failure builds a fresh pool and works.
    clean = run_sweep(SPEC, pool_config())
    assert clean.dispatch["pool_reused"] is False
    assert len(clean.replicas) == 4


def test_dead_worker_surfaces_as_pool_broken_error():
    pool = WarmPool(SPEC, 42, workers=2)
    try:
        for process in multiprocessing.active_children():
            if process.name.startswith("sweep-warm-"):
                process.kill()
                process.join()
        assert pool.alive() is False
        with pytest.raises(SweepWorkerError) as excinfo:
            pool.run([[0], [1]])
        assert excinfo.value.pool_broken is True
    finally:
        pool.terminate()
    assert warm_worker_count() == 0


def test_warm_pool_context_manager_reaps_on_error():
    with pytest.raises(KeyboardInterrupt):
        with WarmPool(SPEC, 42, workers=2) as pool:
            assert pool.alive()
            raise KeyboardInterrupt
    assert warm_worker_count() == 0


# -- supervised sweeps on the same substrate -----------------------------------

def supervised_config(**overrides):
    return pool_config(mode="supervised", **overrides)


def supervision_counter(result, name):
    metric = result.supervision["metrics"].get(name)
    return metric["value"] if metric else 0


def test_supervised_sweeps_reuse_the_shared_pool():
    first = run_sweep(SPEC, supervised_config())
    second = run_sweep(SPEC, supervised_config())
    assert first.dispatch["pool_reused"] is False
    assert second.dispatch["pool_reused"] is True
    assert first.digests() == second.digests()
    # Plain warm-pool dispatch of the same spec lands on the same pool.
    plain = run_sweep(SPEC, pool_config())
    assert plain.dispatch["pool_reused"] is True
    assert warm_worker_count(timeout=0.0) == 2


def test_supervised_crash_and_timeout_leave_no_sweep_process():
    # A chaos plan forces a private pool, closed with its sweep.
    crashed = run_sweep(
        SPEC, supervised_config(),
        supervision=SupervisorConfig(chaos=ChaosPlan({1: ("crash",)})))
    assert crashed.complete()
    assert supervision_counter(crashed, "supervisor.worker_crashes") == 1
    assert warm_worker_count(prefix="sweep-") == 0
    # A paper-scale Stuxnet replica runs for seconds, so a 0.3 s timeout
    # kills both workers of the shared pool mid-replica.
    timed_out = run_sweep(
        CampaignSpec("stuxnet"), supervised_config(replicas=2),
        supervision=SupervisorConfig(replica_timeout=0.3,
                                     max_replica_retries=0))
    assert [f.reason for f in timed_out.failures] == ["timeout", "timeout"]
    # The killed workers were replaced: the shared pool stays whole and
    # warm, and holds nothing but idle sweep-warm workers.
    assert warm_worker_count(timeout=0.0, prefix="sweep-") == 2
    assert warm_worker_count(timeout=0.0) == 2
    shutdown_shared_pool()
    assert warm_worker_count(prefix="sweep-") == 0


def test_worker_killed_while_idle_is_charged_a_crash_attempt(monkeypatch):
    serial = run_sweep(SPEC, pool_config(mode="serial"))
    shared_pool(SPEC, 42, 2)
    victim = next(process for process in multiprocessing.active_children()
                  if process.name.startswith("sweep-warm-"))
    victim.kill()
    victim.join(timeout=5.0)
    assert not victim.is_alive()
    # Simulate the liveness check racing the death: the sweep reuses
    # the pool and finds the dead worker only when it sends a chunk.
    monkeypatch.setattr(WarmPool, "alive", lambda self: True)
    result = run_sweep(SPEC, supervised_config())
    assert result.dispatch["pool_reused"] is True
    assert result.complete()
    assert result.digests() == serial.digests()
    assert supervision_counter(result, "supervisor.worker_crashes") == 1
    assert supervision_counter(result, "supervisor.replica_retries") == 1
    retries = [span["attrs"] for span in result.supervision["spans"]
               if span["name"] == "supervisor.retry"]
    assert [(attrs["reason"], attrs["attempt"]) for attrs in retries] == \
        [("worker-crash", 1)]
    assert warm_worker_count(timeout=0.0) == 2


# -- direct pool use and the row codec -----------------------------------------

def stable_dict(replica):
    """``as_dict()`` minus the only wall-clock-bound field."""
    payload = replica.as_dict()
    payload.pop("wall_seconds")
    return payload


def test_warm_pool_run_matches_in_process_replicas():
    with WarmPool(SPEC, 7, workers=2) as pool:
        replicas = sorted(pool.run([[0, 1], [2]]),
                          key=lambda replica: replica.index)
        reference = [run_replica(SPEC, index, 7) for index in range(3)]
        assert [stable_dict(r) for r in replicas] == \
            [stable_dict(r) for r in reference]
        # A second dispatch on the same (still warm) pool works too.
        again = pool.run([[0]])
        assert stable_dict(again[0]) == stable_dict(reference[0])
    assert warm_worker_count() == 0


def test_closed_pool_refuses_dispatch():
    pool = WarmPool(SPEC, 7, workers=1)
    pool.close()
    with pytest.raises(RuntimeError):
        pool.run([[0]])


def test_replica_row_codec_round_trips_a_real_replica():
    replica = run_replica(SPEC, 3, 99)
    decoded = decode_replica_row(encode_replica_row(replica), 99)
    assert decoded.as_dict() == replica.as_dict()
    # The seed is recomputed, not shipped: decoding under the wrong
    # base seed is loudly visible rather than silently absorbed.
    wrong = decode_replica_row(encode_replica_row(replica), 100)
    assert wrong.seed != replica.seed
    assert wrong.seed == replica_seed(100, 3)
