"""Process-parallel Monte-Carlo sweep engine.

Shards N seeded campaign replicas across a worker pool.  Three
properties make the ensemble trustworthy:

1. **Deterministic sharding** — replica *i*'s seed is a pure function
   of (base seed, *i*) (:func:`repro.core.ensemble.replica_seed`), so
   results are independent of worker count, chunk size, and dispatch
   order.
2. **Worker-side reduction** — each worker runs the full campaign but
   ships home only a :class:`~repro.core.ensemble.ReplicaResult`
   (scalars plus a trace digest); full event traces never cross the
   process boundary.
3. **A bit-identical serial fallback** — both paths execute the same
   :func:`~repro.core.ensemble.run_replica`, so ``mode="serial"``
   reproduces the parallel results exactly, replica for replica.

The parallel path dispatches through the warm, reusable worker pool in
:mod:`repro.sim.workerpool` (spec shipped once at warm-up, compact
binary result rows, cross-sweep reuse) and is *adaptive*: a timed
in-process probe of the first pending replica sizes the chunks
(:func:`adaptive_chunk_size`) and, when the whole remaining ensemble
costs less than the parallelism break-even, skips process dispatch
entirely (:func:`should_fallback`).  Which path actually ran is
recorded in :attr:`SweepResult.dispatch` so tests can assert on it.

This module sits in :mod:`repro.sim` but drives :mod:`repro.core`
campaigns — the one place the layering inverts — so it imports the
ensemble helpers lazily inside functions to keep package import order
acyclic.
"""

import math
import os
import time

from repro.sim.errors import SweepWorkerError

#: Estimated remaining serial seconds below which process dispatch
#: cannot pay for itself: pool warm-up, task framing, and row decoding
#: cost on the order of low hundreds of milliseconds, so an ensemble
#: cheaper than this finishes sooner run in-process.
PARALLEL_BREAK_EVEN_SECONDS = 0.2

#: Target wall-clock seconds per dispatched chunk when sizing chunks
#: from the measured probe: large enough to amortise per-chunk framing,
#: small enough to keep workers load-balanced and checkpoints fresh.
CHUNK_TARGET_SECONDS = 0.25


def should_fallback(replicas, probe_seconds,
                    threshold=PARALLEL_BREAK_EVEN_SECONDS):
    """True when dispatching ``replicas`` to a pool cannot pay off.

    A pure function of its arguments (property-tested as such), so the
    adaptive path stays deterministic given the same probe measurement.
    ``probe_seconds`` is None when nothing was measured (probe skipped),
    which always means "do not fall back".
    """
    if probe_seconds is None:
        return False
    return replicas * probe_seconds < threshold


def adaptive_chunk_size(replicas, workers, probe_seconds,
                        target_seconds=CHUNK_TARGET_SECONDS):
    """Chunk size derived from a measured per-replica cost.

    Starts from the classic four-chunks-per-worker spread (amortises
    per-task overhead while smoothing uneven replicas) and shrinks it
    so no chunk is expected to exceed ``target_seconds`` — expensive
    replicas stream back (and checkpoint) nearly one at a time, cheap
    ones batch up.  A pure function of its arguments; with no probe
    measurement it reduces to the spread alone.
    """
    if replicas < 1:
        return 1
    spread = max(1, math.ceil(replicas / (workers * 4)))
    if not probe_seconds or probe_seconds <= 0:
        return spread
    by_cost = target_seconds / probe_seconds
    # Compare before int(): a subnormal probe makes the ratio overflow
    # to inf, and the cost cap can only ever shrink the spread anyway.
    if by_cost >= spread:
        return spread
    return max(1, int(by_cost))


def _integral(name, value):
    """Validate a pool-shape parameter as a true positive integer.

    A float like ``replicas=2.5`` would pass a bare ``< 1`` check and
    then blow up as a ``TypeError`` deep inside ``range()`` in
    ``run_sweep``; bools are ints but are always a caller mistake here.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an integer, got %r" % (name, value))
    if value < 1:
        raise ValueError("%s must be >= 1, got %r" % (name, value))
    return value


class SweepConfig:
    """How to run an ensemble: size, pool shape, and dispatch mode.

    ``mode="supervised"`` runs the same warm worker pool as
    ``"parallel"`` under the :mod:`repro.sim.supervisor` policy: crash
    recovery, per-replica timeouts, and poison-replica quarantine
    instead of a raised :class:`~repro.sim.errors.SweepWorkerError`.
    """

    __slots__ = ("replicas", "workers", "chunk_size", "base_seed", "mode",
                 "pool_warm", "fallback", "fallback_threshold")

    MODES = ("auto", "serial", "parallel", "supervised")

    def __init__(self, replicas=16, workers=None, chunk_size=None,
                 base_seed=0, mode="auto", pool_warm=True, fallback=True,
                 fallback_threshold=None):
        replicas = _integral("replicas", replicas)
        if workers is None:
            workers = os.cpu_count() or 1
        workers = _integral("workers", workers)
        if chunk_size is not None:
            chunk_size = _integral("chunk_size", chunk_size)
        if mode not in self.MODES:
            raise ValueError("mode must be one of %s, got %r"
                             % (self.MODES, mode))
        for name, value in (("pool_warm", pool_warm),
                            ("fallback", fallback)):
            if not isinstance(value, bool):
                raise TypeError("%s must be a bool, got %r" % (name, value))
        if fallback_threshold is not None:
            if isinstance(fallback_threshold, bool) or \
                    not isinstance(fallback_threshold, (int, float)):
                raise TypeError("fallback_threshold must be a number or "
                                "None, got %r" % (fallback_threshold,))
            if not fallback_threshold > 0:
                raise ValueError("fallback_threshold must be positive, "
                                 "got %r" % (fallback_threshold,))
        self.replicas = replicas
        self.workers = workers
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        self.mode = mode
        #: Reuse the process-wide warm pool across sweeps (default).
        #: False builds a private pool and closes it with the sweep.
        self.pool_warm = pool_warm
        #: Allow the adaptive serial fallback when the probed ensemble
        #: cost sits below the parallelism break-even.
        self.fallback = fallback
        self.fallback_threshold = fallback_threshold

    def resolved_mode(self):
        """The dispatch path ``run_sweep`` will actually take."""
        if self.mode != "auto":
            return self.mode
        if self.workers > 1 and self.replicas > 1:
            return "parallel"
        return "serial"

    def resolved_chunk_size(self):
        """The configured chunk size, else :func:`adaptive_chunk_size`'s
        unprobed spread."""
        if self.chunk_size is not None:
            return self.chunk_size
        return adaptive_chunk_size(self.replicas, self.workers, None)

    def resolved_fallback_threshold(self):
        """Break-even seconds below which dispatch falls back to serial."""
        if self.fallback_threshold is not None:
            return self.fallback_threshold
        return PARALLEL_BREAK_EVEN_SECONDS

    def __repr__(self):
        return ("SweepConfig(replicas=%d, workers=%d, chunk_size=%r, "
                "base_seed=%r, mode=%r, pool_warm=%r, fallback=%r)"
                % (self.replicas, self.workers, self.chunk_size,
                   self.base_seed, self.mode, self.pool_warm,
                   self.fallback))


def shard_indices(replicas, chunk_size):
    """Split ``range(replicas)`` into consecutive chunks."""
    return shard_chunks(range(replicas), chunk_size)


def shard_chunks(indices, chunk_size):
    """Split an arbitrary replica-index list into consecutive chunks.

    The resume path runs only the indices a manifest is missing, which
    need not start at zero or be contiguous — but chunking stays purely
    positional, so sharding still never affects per-replica results.
    """
    indices = list(indices)
    return [indices[start:start + chunk_size]
            for start in range(0, len(indices), chunk_size)]


class SweepResult:
    """An ensemble's replicas plus how they were produced.

    The derived views (:meth:`aggregate`, :meth:`merged_metrics`,
    :meth:`aggregate_metrics`) are memoised: a result is immutable once
    built, and the CLI renders the same aggregates two or three times
    per sweep (table, ``--json``, ``--metrics``), so each is computed
    once and the cached mapping returned — treat them as read-only.
    """

    __slots__ = ("spec", "mode", "workers", "chunk_size", "base_seed",
                 "replicas", "wall_seconds", "failures", "supervision",
                 "dispatch", "_cache")

    def __init__(self, spec, mode, workers, chunk_size, base_seed,
                 replicas, wall_seconds, failures=None, supervision=None,
                 dispatch=None):
        self.spec = spec
        self.mode = mode
        self.workers = workers
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        #: :class:`~repro.core.ensemble.ReplicaResult` list, by index.
        self.replicas = replicas
        self.wall_seconds = wall_seconds
        #: :class:`~repro.core.ensemble.ReplicaFailure` list, by index —
        #: replicas the supervised path could not complete.  Aggregation
        #: tolerates the gaps: every derived view runs over whatever
        #: replicas exist.
        self.failures = list(failures or [])
        #: Supervision report (counters, spans) from the supervised
        #: path; None for serial/parallel dispatch.  Kept separate from
        #: the replica data because it is inherently wall-clock-bound
        #: and therefore nondeterministic.
        self.supervision = supervision
        #: How dispatch actually went: which path ran ("serial",
        #: "warm-pool", "serial-fallback", "supervised"), the probe
        #: measurement and break-even that steered it, and whether a
        #: warm pool was reused.  Wall-clock-bound like ``supervision``,
        #: so kept apart from the replica data — tests assert on
        #: ``dispatch["path"]``, never on the timings.
        self.dispatch = dispatch or {}
        self._cache = {}

    def _cached(self, key, compute):
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def measurements(self):
        """Per-replica measurement dicts, in replica order."""
        return [replica.measurements for replica in self.replicas]

    def digests(self):
        """Per-replica trace digests, in replica order."""
        return [replica.trace_digest for replica in self.replicas]

    def metrics(self):
        """Per-replica metric snapshots, in replica order."""
        return [replica.metrics for replica in self.replicas]

    def quarantined(self):
        """Indices of poison replicas quarantined by the supervisor."""
        return sorted(failure.index for failure in self.failures
                      if failure.quarantined)

    def complete(self):
        """True when every requested replica produced a result."""
        return not self.failures

    def merged_metrics(self):
        """One ensemble-wide metrics snapshot (counters/histograms add)."""
        from repro.core.ensemble import merge_metric_snapshots

        return self._cached("merged_metrics",
                            lambda: merge_metric_snapshots(self.replicas))

    def aggregate(self):
        """Summary statistics per measurement key (see ensemble module)."""
        from repro.core.ensemble import aggregate

        return self._cached("aggregate", lambda: aggregate(self.replicas))

    def aggregate_metrics(self):
        """Summary statistics per metric across replicas."""
        from repro.core.ensemble import aggregate_metrics

        return self._cached("aggregate_metrics",
                            lambda: aggregate_metrics(self.replicas))

    def merge_replicas(self, more):
        """Splice replicas recovered from a resume manifest into this
        result, keeping index order.

        This is the one sanctioned mutation of a built result, so it
        also drops every memoised aggregate — the cached mappings were
        computed over the pre-merge ensemble and would silently
        misreport the merged one.  A duplicate index is always a
        caller bug (the resume path only re-runs replicas the manifest
        did *not* record) and raises rather than picking a winner.
        """
        merged = {replica.index: replica for replica in self.replicas}
        for replica in more:
            if replica.index in merged:
                raise ValueError(
                    "merge_replicas() got replica index %d twice"
                    % replica.index)
            merged[replica.index] = replica
        self.replicas = [merged[index] for index in sorted(merged)]
        self._cache.clear()
        return self

    def as_dict(self):
        """JSON-ready rendering (CLI ``--json`` and BENCH_sweep.json)."""
        return {
            "spec": self.spec.as_dict(),
            "mode": self.mode,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "base_seed": self.base_seed,
            "replica_count": len(self.replicas),
            "failure_count": len(self.failures),
            "quarantined": self.quarantined(),
            "wall_seconds": self.wall_seconds,
            "distinct_trace_digests": len(set(self.digests())),
            "replicas": [replica.as_dict() for replica in self.replicas],
            "failures": [failure.as_dict() for failure in self.failures],
            "aggregate": self.aggregate(),
            "metrics_merged": self.merged_metrics(),
            "metrics_aggregate": self.aggregate_metrics(),
            "supervision": self.supervision,
            "dispatch": self.dispatch,
        }

    def __repr__(self):
        failed = (", %d failed" % len(self.failures)
                  if self.failures else "")
        return ("SweepResult(%r, %d replicas%s, mode=%s, %.2fs)"
                % (self.spec, len(self.replicas), failed, self.mode,
                   self.wall_seconds))


def _dispatch_warm_pool(spec, base_seed, chunks, workers, pool_warm,
                        on_replica, policy=None, before_replica=None):
    """Run ``chunks`` on a warm pool, applying the lifecycle policy.

    ``pool_warm=True`` acquires the process-wide shared pool — reused
    across sweeps when (spec, base seed, workers) match — and leaves it
    warm on success *and* after a replica-level
    :class:`SweepWorkerError` (the workers are healthy; only the
    replica failed).  Otherwise a private pool of at most one worker
    per chunk (carrying the ``before_replica`` test hook, if any) is
    closed with the sweep.  Anything else escaping mid-dispatch (worker
    death, ``KeyboardInterrupt``, a manifest write blowing up, a
    supervision error) leaves chunks in flight, so the pool is
    terminated outright — no worker process ever outlives a failed
    sweep.  Returns ``(replicas, reused)``.
    """
    from repro.sim.workerpool import (
        WarmPool,
        invalidate_shared_pool,
        shared_pool,
    )

    if pool_warm:
        pool, reused = shared_pool(spec, base_seed, workers)
    else:
        pool = WarmPool(spec, base_seed, min(workers, len(chunks)) or 1,
                        before_replica=before_replica)
        reused = False
    try:
        replicas = pool.run(chunks, on_replica=on_replica, policy=policy)
    except SweepWorkerError as exc:
        if exc.pool_broken:
            invalidate_shared_pool(pool)
        elif not pool_warm:
            pool.close()
        raise
    except BaseException:
        invalidate_shared_pool(pool)
        raise
    if not pool_warm:
        pool.close()
    return replicas, reused


def run_sweep(spec, config=None, checkpoint_dir=None, resume=False,
              supervision=None, retry_quarantined=True, **overrides):
    """Run an ensemble of seeded replicas of ``spec``.

    Pass a :class:`SweepConfig`, or keyword overrides to build one
    (``run_sweep(spec, replicas=32, workers=8)``).  Returns a
    :class:`SweepResult` whose replicas are always in index order,
    whichever path produced them.

    With ``checkpoint_dir`` the sweep is resumable: a manifest pinning
    (spec, base seed, replica count) lands first, then each replica's
    reduction is written atomically the moment it streams back from a
    worker.  ``resume=True`` loads that manifest, validates it against
    the requested spec/config (raising the typed
    :class:`~repro.sim.errors.CheckpointError` on any mismatch), short-
    circuits every recorded replica, and runs only the missing ones —
    per-replica seeding makes the merged result byte-identical to an
    uninterrupted sweep, down to the trace digests.

    ``supervision`` (a :class:`~repro.sim.supervisor.SupervisorConfig`)
    or ``mode="supervised"`` runs the warm worker pool under the
    supervision policy: crashes, hangs, and timeouts cost single replica
    attempts instead of the ensemble, and poison replicas land as
    :attr:`SweepResult.failures` (quarantine records persist in the
    manifest).  On resume, quarantined replicas are retried by default;
    ``retry_quarantined=False`` skips them and carries their failure
    records into the result instead — both choices are deterministic,
    because a retried replica re-runs from its pure ``replica_seed``.

    A ``KeyboardInterrupt`` mid-sweep tears the worker pool down hard
    but keeps the checkpoint manifest intact: every replica recorded
    before the interrupt is already flushed (the writes are atomic and
    per-replica), so ``--resume`` afterwards loses at most the work
    that was in flight.
    """
    if config is None:
        config = SweepConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a SweepConfig or keyword overrides, "
                        "not both")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    mode = config.resolved_mode()
    if supervision is not None:
        if mode == "serial":
            raise ValueError("serial mode cannot be supervised: "
                             "supervision needs worker processes")
        mode = "supervised"
    elif mode == "supervised":
        from repro.sim.supervisor import SupervisorConfig

        supervision = SupervisorConfig()
    from repro.core.ensemble import run_replica

    manifest = None
    completed = {}
    carried_failures = []
    if checkpoint_dir is not None:
        from repro.core.resume import SweepCheckpoint

        if resume:
            manifest = SweepCheckpoint.load(checkpoint_dir)
            manifest.validate_against(spec, config)
            completed = manifest.completed()
            if not retry_quarantined:
                carried_failures = [
                    failure
                    for index, failure in sorted(manifest.failures().items())
                    if failure.quarantined and index not in completed]
        else:
            manifest = SweepCheckpoint.create(checkpoint_dir, spec, config)
    skipped = {failure.index for failure in carried_failures}
    pending = [index for index in range(config.replicas)
               if index not in completed and index not in skipped]

    def record(replica):
        if manifest is not None:
            manifest.record(replica)
        return replica

    chunk_size = config.resolved_chunk_size()
    started = time.perf_counter()
    failures = []
    supervision_report = None
    dispatch = {
        "requested_mode": config.mode,
        "path": mode,
        "pool_warm": config.pool_warm,
        "pool_reused": False,
        "fallback_enabled": config.fallback,
        "probe_seconds": None,
        "estimated_seconds": None,
        "break_even_seconds": config.resolved_fallback_threshold(),
    }
    if mode == "serial":
        replicas = [record(run_replica(spec, index, config.base_seed))
                    for index in pending]
        workers_used = 1
    elif mode == "supervised":
        from repro.sim.supervisor import supervise_sweep

        workers_used = min(config.workers, len(pending)) or 1
        replicas = []
        if pending:
            outcome = supervise_sweep(
                spec, config.base_seed, pending,
                workers=config.workers, chunk_size=chunk_size,
                supervision=supervision, record=record,
                record_failure=(manifest.record_failure
                                if manifest is not None else None),
                pool_warm=config.pool_warm)
            dispatch["pool_reused"] = outcome.pool_reused
            replicas = outcome.replicas
            failures = outcome.failures
            supervision_report = outcome.report
            workers_used = outcome.report["workers"]
    else:
        dispatch["path"] = "warm-pool"
        replicas = []
        workers_used = 1
        rest = pending
        if pending and (config.fallback or config.chunk_size is None):
            # Cost probe: run the first pending replica in-process and
            # time it.  The measurement steers adaptive chunk sizing
            # and the serial fallback; the probe replica is a full,
            # recorded result, so probing never duplicates work.
            probe_started = time.perf_counter()
            replicas.append(record(run_replica(spec, pending[0],
                                               config.base_seed)))
            probe = time.perf_counter() - probe_started
            rest = pending[1:]
            dispatch["probe_seconds"] = probe
            dispatch["estimated_seconds"] = probe * len(rest)
        if rest:
            if config.fallback and should_fallback(
                    len(rest), dispatch["probe_seconds"],
                    config.resolved_fallback_threshold()):
                # Below break-even: process dispatch would cost more
                # than it buys.  Finish in-process — byte-identical,
                # because both paths run the same run_replica from the
                # same pure per-replica seeds.
                dispatch["path"] = "serial-fallback"
                replicas.extend(record(run_replica(spec, index,
                                                   config.base_seed))
                                for index in rest)
            else:
                if config.chunk_size is None:
                    chunk_size = adaptive_chunk_size(
                        len(rest), config.workers,
                        dispatch["probe_seconds"])
                chunks = shard_chunks(rest, chunk_size)
                workers_used = min(config.workers, len(chunks)) or 1
                pooled, dispatch["pool_reused"] = _dispatch_warm_pool(
                    spec, config.base_seed, chunks, config.workers,
                    config.pool_warm, record)
                replicas.extend(pooled)
        replicas.sort(key=lambda replica: replica.index)
    failures = sorted(failures + carried_failures,
                      key=lambda failure: failure.index)
    result = SweepResult(
        spec=spec,
        mode=mode,
        workers=workers_used,
        chunk_size=chunk_size,
        base_seed=config.base_seed,
        replicas=replicas,
        wall_seconds=time.perf_counter() - started,
        failures=failures,
        supervision=supervision_report,
        dispatch=dispatch,
    )
    if completed:
        result.merge_replicas(completed.values())
    return result
