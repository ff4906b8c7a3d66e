"""Supervised sweep execution: crash isolation, timeouts, quarantine.

Supervision is a *policy* over the one worker substrate,
:class:`~repro.sim.workerpool.WarmPool`: the pool's dispatch loop
consults it at every decision point, and this module keeps only the
bookkeeping — attempts, history, quarantine records, spans and the
report.  Without it, a worker that segfaults, gets OOM-killed, or spins
forever inside a replica (easy to provoke via Flame's Lua-scripted
modules) fails the whole ensemble.  At the replica counts the
Monte-Carlo experiments call for, per-replica failure is a certainty,
not an edge case, so the policy turns each failure into one charged
attempt:

* **Crash isolation.**  A dead worker (detected by pipe EOF, or by a
  failed send to a worker that died while idle) costs only its
  in-flight chunk: the replica it was running is charged one failed
  attempt, the untouched remainder of the chunk is re-queued as its
  own chunk (*re-splitting* — a poison replica never re-fails its
  neighbours), and the pool respawns the slot.
* **Timeouts and heartbeats.**  Workers send an ``S`` frame as each
  replica starts and ``H`` heartbeat frames while a chunk is in
  flight.  A replica that outlives ``replica_timeout`` is killed and
  charged a failed attempt; a worker whose heartbeats stop (process
  frozen, not merely slow) is killed the same way.  ``sweep_deadline``
  bounds the whole ensemble.
* **Bounded retry with quarantine.**  A failed replica is re-dispatched
  (as a singleton chunk, after a deterministic jittered backoff — see
  :func:`repro.sim.retry.deterministic_backoff`) until its attempts run
  out; then it becomes a structured
  :class:`~repro.core.ensemble.ReplicaFailure` instead of an exception
  (``on_failure="quarantine"``, the default) or raises the typed
  :class:`~repro.sim.errors.PoisonReplicaError` (``on_failure="fail"``).
* **Partial-result salvage.**  Whatever happens, the supervisor returns
  every completed :class:`~repro.core.ensemble.ReplicaResult` plus a
  machine-readable failure report; a deadline or interrupt degrades the
  ensemble instead of destroying it.

Determinism is preserved throughout: a retried replica re-runs
:func:`~repro.core.ensemble.run_replica` from its pure ``replica_seed``,
so a salvaged sweep merged with a later retry pass is byte-identical to
an undisturbed run.  Only the *supervision report* (restart counters,
wall-clock spans) is inherently nondeterministic, and it is kept apart
from the replica data for exactly that reason.

Like :mod:`repro.sim.sweep`, this module drives :mod:`repro.core`
campaigns from inside :mod:`repro.sim`, so the ensemble imports happen
lazily inside functions to keep package import order acyclic.
"""

import os
import signal
import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import STATUS_ERROR, SpanRecorder
from repro.sim.errors import (
    PoisonReplicaError,
    ReplicaTimeoutError,
    SupervisionError,
)
from repro.sim.retry import RetryPolicy, deterministic_backoff
from repro.sim.workerpool import DispatchPolicy

#: How long an injected "hang" sleeps — far beyond any timeout a test
#: or the chaos gate would configure, so the supervisor always wins the
#: race.
_CHAOS_SLEEP_SECONDS = 3600.0

#: Exit code an injected worker crash dies with (mimics ``os._exit``
#: after a segfault handler; distinguishable in process tables).
_CHAOS_EXIT_CODE = 70

#: Metric charged when a worker is lost, by reason.
_LOSS_METRICS = {"worker-crash": "supervisor.worker_crashes",
                 "timeout": "supervisor.replica_timeouts",
                 "hang": "supervisor.worker_hangs"}


class ChaosPlan:
    """Deterministic failure injection for the supervised sweep path.

    Maps replica index to a per-attempt sequence of behaviours:
    ``{3: ("crash", "ok")}`` means replica 3's first attempt kills its
    worker with ``os._exit`` and its second runs normally; attempts
    beyond the sequence run normally.  Behaviours:

    * ``ok`` — run the replica normally;
    * ``crash`` — ``os._exit`` the worker (crash isolation path);
    * ``hang`` — sleep forever while still heartbeating (replica
      wall-clock timeout path);
    * ``freeze`` — ``SIGSTOP`` the worker, heartbeat thread included
      (hang detection path);
    * ``error`` — raise inside the replica (in-process failure path).

    Used by the crash-injection test suite and the CI chaos gate.  A
    non-empty plan is installed into a private pool's workers at spawn
    as their :meth:`before_replica` hook; the production worker loop
    carries no chaos code.
    """

    BEHAVIORS = ("ok", "crash", "hang", "freeze", "error")

    def __init__(self, behaviors=None):
        self._behaviors = {}
        for index, sequence in (behaviors or {}).items():
            if isinstance(sequence, str):
                sequence = (sequence,)
            sequence = tuple(sequence)
            for token in sequence:
                if token not in self.BEHAVIORS:
                    raise ValueError(
                        "unknown chaos behaviour %r for replica %r "
                        "(expected one of %s)"
                        % (token, index, list(self.BEHAVIORS)))
            self._behaviors[index] = sequence

    def behavior(self, index, attempt):
        """Behaviour for 1-based ``attempt`` of ``index`` (None = ok)."""
        sequence = self._behaviors.get(index)
        if not sequence or attempt > len(sequence):
            return None
        token = sequence[attempt - 1]
        return None if token == "ok" else token

    def before_replica(self, index, attempt):
        """Worker-side hook: act out ``attempt``'s behaviour for ``index``."""
        behavior = self.behavior(index, attempt)
        if behavior == "crash":
            os._exit(_CHAOS_EXIT_CODE)
        elif behavior == "freeze":
            os.kill(os.getpid(), signal.SIGSTOP)
        elif behavior == "hang":
            time.sleep(_CHAOS_SLEEP_SECONDS)
        elif behavior == "error":
            raise RuntimeError("chaos: injected replica error")

    def __bool__(self):
        return bool(self._behaviors)

    def __repr__(self):
        return "ChaosPlan(%r)" % (self._behaviors,)


class SupervisorConfig:
    """How the supervisor polices its workers.

    * ``replica_timeout`` — wall-clock seconds one replica attempt may
      take before its worker is killed (None = unlimited).
    * ``sweep_deadline`` — wall-clock seconds the whole ensemble may
      take; on expiry the sweep salvages what completed and records the
      rest as non-quarantined (retriable) failures.
    * ``max_replica_retries`` — failed attempts a replica may retry;
      a replica gets ``1 + max_replica_retries`` attempts total before
      quarantine.
    * ``on_failure`` — ``"quarantine"`` records a ``ReplicaFailure``
      and keeps sweeping; ``"fail"`` raises the typed error instead.
    * ``heartbeat_interval`` / ``hang_timeout`` — workers heartbeat
      every ``heartbeat_interval`` seconds while a chunk is in flight
      (the interval rides each task frame, so it never splits the
      shared pool); a busy worker silent for
      ``hang_timeout`` (default ``20 x heartbeat_interval``) is treated
      as hung and killed.
    * ``retry_policy`` — the :class:`~repro.sim.retry.RetryPolicy`
      shaping the (deterministic, jittered) backoff before a replica's
      retry attempts; the default backs off 50 ms doubling to a 2 s cap.
    * ``chaos`` — an optional :class:`ChaosPlan` for fault injection.
    """

    __slots__ = ("replica_timeout", "sweep_deadline", "max_replica_retries",
                 "on_failure", "poll_interval", "heartbeat_interval",
                 "hang_timeout", "retry_policy", "chaos")

    ON_FAILURE = ("quarantine", "fail")

    def __init__(self, replica_timeout=None, sweep_deadline=None,
                 max_replica_retries=2, on_failure="quarantine",
                 poll_interval=0.05, heartbeat_interval=0.25,
                 hang_timeout=None, retry_policy=None, chaos=None):
        for name, value in (("replica_timeout", replica_timeout),
                            ("sweep_deadline", sweep_deadline),
                            ("hang_timeout", hang_timeout)):
            if value is not None and not value > 0:
                raise ValueError("%s must be positive or None, got %r"
                                 % (name, value))
        if isinstance(max_replica_retries, bool) or \
                not isinstance(max_replica_retries, int) or \
                max_replica_retries < 0:
            raise ValueError("max_replica_retries must be an integer >= 0, "
                             "got %r" % (max_replica_retries,))
        if on_failure not in self.ON_FAILURE:
            raise ValueError("on_failure must be one of %s, got %r"
                             % (list(self.ON_FAILURE), on_failure))
        if not poll_interval > 0:
            raise ValueError("poll_interval must be positive, got %r"
                             % (poll_interval,))
        if not heartbeat_interval > 0:
            raise ValueError("heartbeat_interval must be positive, got %r"
                             % (heartbeat_interval,))
        self.replica_timeout = replica_timeout
        self.sweep_deadline = sweep_deadline
        self.max_replica_retries = max_replica_retries
        self.on_failure = on_failure
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.retry_policy = retry_policy
        self.chaos = chaos

    def resolved_hang_timeout(self):
        """Silence threshold before a busy worker counts as hung."""
        if self.hang_timeout is not None:
            return self.hang_timeout
        return 20.0 * self.heartbeat_interval

    def resolved_retry_policy(self):
        if self.retry_policy is not None:
            return self.retry_policy
        return RetryPolicy(max_attempts=max(2, self.max_replica_retries + 1),
                           base_delay=0.05, multiplier=2.0, max_delay=2.0,
                           jitter=0.25)

    def __repr__(self):
        return ("SupervisorConfig(replica_timeout=%r, sweep_deadline=%r, "
                "max_replica_retries=%d, on_failure=%r)"
                % (self.replica_timeout, self.sweep_deadline,
                   self.max_replica_retries, self.on_failure))


class _WallClock:
    """Monotonic wall-clock shim so the supervisor can record spans.

    Campaign spans run on virtual time; supervision happens in real
    time, so its spans get their own zero-based monotonic clock.
    """

    def __init__(self):
        self._t0 = time.perf_counter()

    @property
    def now(self):
        return time.perf_counter() - self._t0


class SupervisionOutcome:
    """What a supervised dispatch produced: results, failures, report."""

    __slots__ = ("replicas", "failures", "report", "pool_reused")

    def __init__(self, replicas, failures, report, pool_reused=False):
        #: Completed :class:`ReplicaResult` objects, in index order.
        self.replicas = replicas
        #: :class:`ReplicaFailure` records, in index order.
        self.failures = failures
        #: Machine-readable supervision report (counters, spans).
        self.report = report
        #: Whether the sweep ran on an already-warm shared pool.
        self.pool_reused = pool_reused

    def __repr__(self):
        return ("SupervisionOutcome(%d replicas, %d failures)"
                % (len(self.replicas), len(self.failures)))


class _Supervisor(DispatchPolicy):
    """The supervision policy :meth:`WarmPool.run` consults.

    Timers come from the :class:`SupervisorConfig`; a replica error or
    a lost worker is charged to the replica via :meth:`_fail`, which
    returns the retry delay (None once the replica is quarantined).
    """

    def __init__(self, base_seed, pending, workers, supervision,
                 record_failure):
        super().__init__()
        self.base_seed = base_seed
        self.pending = pending
        self.workers = workers
        self.supervision = supervision
        self.record_failure = record_failure
        self.heartbeat_interval = supervision.heartbeat_interval
        self.poll_interval = supervision.poll_interval
        self.replica_timeout = supervision.replica_timeout
        self.hang_timeout = supervision.resolved_hang_timeout()
        self.deadline_at = (time.monotonic() + supervision.sweep_deadline
                            if supervision.sweep_deadline is not None
                            else None)
        self.attempts_allowed = supervision.max_replica_retries + 1
        self.retry_policy = supervision.resolved_retry_policy()
        self.clock = _WallClock()
        self.spans = SpanRecorder(self.clock)
        self.metrics = MetricsRegistry()
        self.root = self.spans.begin("sweep.supervise",
                                     replicas=len(pending), workers=workers)
        self.attempts = {index: 0 for index in pending}
        self.history = {index: [] for index in pending}
        self.failures = {}
        self.backoffs = {}
        self.worker_spans = {}
        self.restarts = 0
        #: Every replica may legitimately kill a worker once per
        #: attempt; anything far beyond that is the pool spinning on a
        #: broken substrate, which must surface as an error, not a
        #: busy loop.
        self.restart_budget = (len(pending) * self.attempts_allowed
                               + 2 * workers + 8)
        self.salvaged = False

    def attempt(self, index):
        return self.attempts[index] + 1

    def worker_joined(self, wid):
        self.worker_spans[wid] = self.spans.begin(
            "supervisor.worker", parent=self.root, worker=wid)
        self.metrics.inc("supervisor.workers_spawned")

    def replica_started(self, index):
        self.attempts[index] += 1

    def replica_done(self, replica):
        self.metrics.inc("supervisor.replicas_completed")

    def replica_error(self, index, kind, detail):
        self.metrics.inc("supervisor.replica_errors")
        return self._fail(index, "error", "%s: %s" % (kind, detail))

    def worker_lost(self, worker, reason, detail):
        self.metrics.inc(_LOSS_METRICS[reason])
        self.restarts += 1
        self.metrics.inc("supervisor.worker_restarts")
        self.spans.finish(self.worker_spans.pop(worker.wid), STATUS_ERROR)
        delay = None
        if worker.current is not None:
            delay = self._fail(worker.current, reason, detail)
        if worker.remaining:
            self.metrics.inc("supervisor.chunks_resplit")
        if self.restarts > self.restart_budget:
            raise SupervisionError(
                "worker restart budget exhausted (%d restarts for a "
                "%d-replica sweep): the substrate is failing faster "
                "than replicas can complete"
                % (self.restarts, len(self.pending)))
        return delay

    def deadline_expired(self):
        self.salvaged = True
        self.metrics.inc("supervisor.deadline_expired")

    def _event_span(self, name, status=STATUS_ERROR, **attrs):
        self.spans.finish(self.spans.begin(name, parent=self.root, **attrs),
                          status)

    def _fail(self, index, reason, detail):
        """Charge one failed attempt; return the retry delay or None."""
        from repro.core.ensemble import ReplicaFailure, replica_seed

        n = self.attempts[index]
        self.history[index].append({"attempt": n, "reason": reason,
                                    "detail": detail})
        if n >= self.attempts_allowed:
            failure = ReplicaFailure(
                index=index, seed=replica_seed(self.base_seed, index),
                attempts=n, reason=reason, quarantined=True,
                history=self.history[index])
            self.failures[index] = failure
            self.metrics.inc("supervisor.replicas_quarantined")
            self._event_span("supervisor.quarantine", replica=index,
                             reason=reason, attempts=n)
            if self.record_failure is not None:
                self.record_failure(failure)
            if self.supervision.on_failure == "fail":
                if reason == "timeout":
                    raise ReplicaTimeoutError(index, n, self.replica_timeout)
                raise PoisonReplicaError(index, n, reason)
            return None
        # Retry as a singleton chunk after a deterministic backoff: the
        # schedule is a pure function of (policy, base seed, replica
        # seed), so a re-run of the same degraded sweep retries on an
        # identical timetable.
        schedule = self.backoffs.get(index)
        if schedule is None:
            schedule = self.backoffs[index] = deterministic_backoff(
                self.retry_policy, self.base_seed,
                replica_seed(self.base_seed, index),
                attempts=max(self.attempts_allowed - 1, 0))
        delay = schedule[min(n, len(schedule)) - 1] if schedule else 0.0
        self.metrics.inc("supervisor.replica_retries")
        self._event_span("supervisor.retry", status="ok", replica=index,
                         attempt=n, reason=reason, backoff=delay)
        return delay

    def outcome(self, replicas, pool_reused):
        """Salvage, close the spans, and build the report."""
        from repro.core.ensemble import ReplicaFailure, replica_seed

        completed = {replica.index for replica in replicas}
        if self.salvaged:
            # Deadline salvage: whatever never completed is recorded as
            # a retriable (non-quarantined) failure — resume re-runs it.
            for index in self.pending:
                if index not in completed and index not in self.failures:
                    self.failures[index] = ReplicaFailure(
                        index=index,
                        seed=replica_seed(self.base_seed, index),
                        attempts=self.attempts[index], reason="deadline",
                        quarantined=False, history=self.history[index])
        for span in self.worker_spans.values():
            self.spans.finish(span)
        self.spans.finish(self.root,
                          STATUS_ERROR if self.salvaged else "ok")
        report = {
            "workers": self.workers,
            "worker_restarts": self.restarts,
            "replicas_completed": len(completed),
            "replicas_failed": len(self.failures),
            "quarantined": sorted(index for index, failure
                                  in self.failures.items()
                                  if failure.quarantined),
            "salvaged": self.salvaged,
            "wall_seconds": self.clock.now,
            "metrics": self.metrics.snapshot(),
            "spans": [span.as_dict() for span in self.spans],
        }
        return SupervisionOutcome(
            replicas=sorted(replicas, key=lambda replica: replica.index),
            failures=[self.failures[index]
                      for index in sorted(self.failures)],
            report=report, pool_reused=pool_reused)


def supervise_sweep(spec, base_seed, pending, workers, chunk_size,
                    supervision, record=None, record_failure=None,
                    pool_warm=False):
    """Run ``pending`` replica indices under supervision.

    ``record(replica)`` fires (in the supervisor process) the moment a
    replica completes — the sweep manifest hook; ``record_failure``
    fires when a replica is quarantined.  Dispatch goes through the
    sweep's warm-pool lifecycle: the process-wide shared pool when
    ``pool_warm`` is set and no chaos plan is installed, a private pool
    closed with the sweep otherwise.  Returns a
    :class:`SupervisionOutcome`; raises only for supervisor-level
    breakdowns or, under ``on_failure="fail"``, the first quarantine.
    """
    from repro.sim.sweep import _dispatch_warm_pool, shard_chunks

    pending = list(pending)
    chunks = shard_chunks(pending, chunk_size)
    supervisor = _Supervisor(base_seed, pending,
                             max(1, min(workers, len(chunks))),
                             supervision, record_failure)
    chaos = supervision.chaos
    replicas, reused = _dispatch_warm_pool(
        spec, base_seed, chunks, workers, pool_warm and not chaos, record,
        policy=supervisor,
        before_replica=chaos.before_replica if chaos else None)
    return supervisor.outcome(replicas, reused)
