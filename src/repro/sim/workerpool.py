"""Warm, reusable worker pool: the one worker substrate for sweeps.

Every process-parallel sweep — plain warm-pool dispatch and supervised
dispatch alike — runs on a :class:`WarmPool`:

* **Persistent workers.**  A :class:`WarmPool` owns N long-lived
  worker processes.  Each receives the pickle-safe ``CampaignSpec``
  exactly **once**, at spawn; every subsequent task is a byte frame of
  replica indices (a few dozen bytes), never the spec again.
* **Warm caches.**  Workers pre-warm the Lua ``compile_cached`` store
  before their first task via :mod:`repro.sim.poolwarm` — preloaded
  into the fork server on the forkserver path, inherited through fork,
  imported at startup under spawn — so no replica ever pays first-use
  compile latency (a respawned worker included).
* **One byte-framed protocol.**  Both pipes carry ``send_bytes``
  frames whose first byte is a tag:

  ========  ==============  ==========================================
  tag       direction       payload
  ========  ==============  ==========================================
  ``T``     parent→worker   heartbeat interval, then (index, attempt)
                            pairs: one chunk to run in order
  ``Q``     parent→worker   none: orderly shutdown
  ``S``     worker→parent   index: the replica is starting
  ``R``     worker→parent   a replica row (:func:`encode_replica_row`)
  ``E``     worker→parent   index, exception type and message
  ``D``     worker→parent   none: the chunk is drained
  ``H``     worker→parent   none: heartbeat, only while a chunk is in
                            flight and its interval is non-zero
  ========  ==============  ==========================================

* **Compact result rows.**  A finished replica travels as a
  struct-framed binary row instead of a pickled ``ReplicaResult``.
  Its seed is *not* shipped: it is a pure function of ``(base_seed,
  index)`` and is recomputed on decode, which is both smaller and a
  standing determinism check.
* **Policies, not parallel pools.**  :meth:`WarmPool.run` is the one
  dispatch loop.  At each decision point — replica error, worker
  death, replica timeout, heartbeat silence, sweep deadline, retries
  falling due — it consults a policy.  With none, any replica error or
  worker death raises :class:`~repro.sim.errors.SweepWorkerError`; the
  supervision policy in :mod:`repro.sim.supervisor` respawns, re-splits,
  retries and quarantines instead.
* **Cross-sweep reuse.**  :func:`shared_pool` keeps one warm pool alive
  between sweeps keyed on ``(spec, base_seed, workers)``, so a resumed
  sweep (or a benchmark loop) stops paying pool start-up entirely.  An
  ``atexit`` hook shuts the survivor down.

Like :mod:`repro.sim.sweep`, this module drives :mod:`repro.core`
campaigns from inside :mod:`repro.sim`, so the ensemble imports happen
lazily inside functions to keep package import order acyclic.
"""

import atexit
import json
import multiprocessing
import struct
import threading
import time
from collections import deque
from multiprocessing import connection as _connection

from repro.sim.errors import SweepWorkerError

#: Start-method preference.  forkserver gives clean workers that are
#: still cheap to mint (and lets :mod:`repro.sim.poolwarm` be preloaded
#: into the server, so workers are born warm); fork is the fallback
#: where forkserver is missing; spawn always works because the worker
#: entrypoint and everything it pickles are module-level.
_PREFERRED_START_METHODS = ("forkserver", "fork", "spawn")

#: Wall-clock grace given to workers at orderly shutdown before SIGKILL.
_SHUTDOWN_GRACE_SECONDS = 2.0

# Frame tags (first byte of every frame; see the module docstring).
_FRAME_TASK = b"T"
_FRAME_QUIT = b"Q"
_FRAME_START = b"S"
_FRAME_ROW = b"R"
_FRAME_ERROR = b"E"
_FRAME_DONE = b"D"
_FRAME_HEARTBEAT = b"H"

#: Fixed row header: index, trace_records, events_dispatched,
#: sim_seconds, wall_seconds.
_ROW_HEADER = struct.Struct("<IQQdd")
_LEN = struct.Struct("<I")
_INDEX = struct.Struct("<I")
#: Task frame: heartbeat interval, then one (index, attempt) per replica.
_TASK_HEADER = struct.Struct("<d")
_TASK_ITEM = struct.Struct("<II")


def pool_start_method():
    """The start method warm pools run under."""
    available = multiprocessing.get_all_start_methods()
    for method in _PREFERRED_START_METHODS:
        if method in available:
            return method
    return "spawn"


def pool_context(start_method=None):
    """A multiprocessing context configured for warm sweep workers.

    On the forkserver path the warm-up module is preloaded into the
    server process, so every worker it forks starts with the Lua
    compile cache already populated.
    """
    method = start_method or pool_start_method()
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        context.set_forkserver_preload(["repro.sim.poolwarm"])
    return context


# -- result-row codec ----------------------------------------------------------

def _pack_blob(obj):
    blob = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(blob)) + blob


def encode_replica_row(replica):
    """Pack a ``ReplicaResult`` into a compact binary row.

    Fixed struct header for the scalars, then length-prefixed UTF-8
    fields: the trace digest, and compact-JSON blobs for the
    measurement and metric snapshots (both are primitive-only by
    construction, so JSON round-trips them exactly).  The seed is
    omitted on purpose — see :func:`decode_replica_row`.
    """
    digest = replica.trace_digest.encode("utf-8")
    return b"".join((
        _ROW_HEADER.pack(replica.index, replica.trace_records,
                         replica.events_dispatched, replica.sim_seconds,
                         replica.wall_seconds),
        _LEN.pack(len(digest)), digest,
        _pack_blob(replica.measurements),
        _pack_blob(replica.metrics),
    ))


def decode_replica_row(row, base_seed):
    """Rebuild a ``ReplicaResult`` from :func:`encode_replica_row` output.

    The seed is recomputed from ``(base_seed, index)`` rather than
    shipped: it is a pure function of the two
    (:func:`repro.core.ensemble.replica_seed`), so carrying it across
    the pipe would only be bytes spent re-stating an invariant.
    """
    from repro.core.ensemble import ReplicaResult, replica_seed

    (index, trace_records, events_dispatched,
     sim_seconds, wall_seconds) = _ROW_HEADER.unpack_from(row)
    offset = _ROW_HEADER.size
    fields = []
    for _ in range(3):
        (size,) = _LEN.unpack_from(row, offset)
        offset += _LEN.size
        fields.append(row[offset:offset + size])
        offset += size
    digest, measurements, metrics = fields
    return ReplicaResult(
        index=index,
        seed=replica_seed(base_seed, index),
        measurements=json.loads(measurements.decode("utf-8")),
        trace_digest=digest.decode("utf-8"),
        trace_records=trace_records,
        events_dispatched=events_dispatched,
        sim_seconds=sim_seconds,
        wall_seconds=wall_seconds,
        metrics=json.loads(metrics.decode("utf-8")),
    )


def _encode_error(index, exc):
    detail = "%s\x00%s" % (type(exc).__name__, exc)
    return (_FRAME_ERROR + _INDEX.pack(index)
            + detail.encode("utf-8", "replace"))


def _decode_error(payload):
    (index,) = _INDEX.unpack_from(payload)
    kind, _, detail = payload[_INDEX.size:].decode("utf-8").partition("\x00")
    return index, kind, detail


def _encode_task(chunk, attempt, heartbeat_interval):
    return b"".join([_FRAME_TASK, _TASK_HEADER.pack(heartbeat_interval)]
                    + [_TASK_ITEM.pack(index, attempt(index))
                       for index in chunk])


# -- worker side ---------------------------------------------------------------

class _ResultLink:
    """Worker-side result pipe: serialised sends plus heartbeats.

    ``Connection.send_bytes`` is not thread-safe, so every frame goes
    out under one lock.  The heartbeat thread starts with the first
    chunk that asks for heartbeats and sends ``H`` every interval only
    while a chunk is in flight: an idle worker never writes, so an idle
    shared pool cannot fill its result pipes.
    """

    def __init__(self, results):
        self._results = results
        self._cond = threading.Condition()
        self._interval = 0.0
        self._thread = None

    def send(self, frame):
        with self._cond:
            self._results.send_bytes(frame)

    def beat(self, interval):
        """Heartbeat every ``interval`` seconds from now on (0 = stop)."""
        with self._cond:
            self._interval = interval
            if interval and self._thread is None:
                self._thread = threading.Thread(target=self._beat,
                                                daemon=True)
                self._thread.start()
            self._cond.notify()

    def _beat(self):
        with self._cond:
            while True:
                if not self._interval:
                    self._cond.wait()
                elif not self._cond.wait(self._interval) and self._interval:
                    try:
                        self._results.send_bytes(_FRAME_HEARTBEAT)
                    except OSError:
                        return


def _pool_worker_main(spec, base_seed, before_replica, tasks, results):
    """Warm-pool worker: run ``T`` chunks in order until ``Q`` or EOF.

    ``before_replica(index, attempt)`` is a test hook installed at
    spawn (the chaos plan); production pools pass None.  A replica
    exception is reported as an ``E`` frame and the worker stays alive
    to finish its chunk.
    """
    import repro.sim.poolwarm  # noqa: F401  (import side-effect warms caches)
    from repro.core.ensemble import run_replica

    link = _ResultLink(results)
    try:
        while True:
            frame = tasks.recv_bytes()
            if frame[:1] != _FRAME_TASK:
                return
            (interval,) = _TASK_HEADER.unpack_from(frame, 1)
            link.beat(interval)
            for index, attempt in _TASK_ITEM.iter_unpack(
                    frame[1 + _TASK_HEADER.size:]):
                link.send(_FRAME_START + _INDEX.pack(index))
                try:
                    if before_replica is not None:
                        before_replica(index, attempt)
                    replica = run_replica(spec, index, base_seed)
                except Exception as exc:
                    link.send(_encode_error(index, exc))
                else:
                    link.send(_FRAME_ROW + encode_replica_row(replica))
            link.beat(0.0)
            link.send(_FRAME_DONE)
    except (EOFError, OSError, KeyboardInterrupt):
        # Parent went away (or is tearing us down): just exit.
        return


# -- parent side ---------------------------------------------------------------

class _PoolWorker:
    """Parent-side handle for one warm worker process.

    ``remaining`` (not yet started), ``current`` (started, unfinished),
    ``started`` and ``last_beat`` describe the chunk in flight; they are
    what the dispatch loop re-splits, charges and times out.
    """

    __slots__ = ("wid", "process", "tasks", "results", "remaining",
                 "current", "started", "last_beat")

    def __init__(self, wid, process, tasks, results):
        self.wid = wid
        self.process = process
        self.tasks = tasks
        self.results = results
        self.remaining = []
        self.current = None
        self.started = None
        self.last_beat = None


def _frames(conn):
    """The frames waiting on ``conn``, then None if the worker is dead."""
    try:
        while conn.poll():
            yield conn.recv_bytes()
    except (EOFError, OSError):
        yield None


def _reap(worker, deadline=None):
    """Join ``worker`` (killed now, or once ``deadline`` passes)."""
    if deadline is not None:
        worker.process.join(max(deadline - time.monotonic(), 0.0))
    if worker.process.is_alive():
        worker.process.kill()
    worker.process.join()
    worker.tasks.close()
    worker.results.close()


class DispatchPolicy:
    """What :meth:`WarmPool.run` does at each decision point.

    The loop reads the timers (None = none), numbers each dispatched
    attempt, reports starts, results and worker spawns, and asks what
    to do when a replica errors or a worker is lost: a returned delay
    schedules the replica's retry as a singleton chunk.  This base
    class is the unsupervised default, with no timers and no retries:
    a replica error stops new dispatch and is raised once in-flight
    chunks drain (``pool_broken=False`` — the workers are healthy),
    and a worker death raises at once with ``pool_broken=True`` (the
    caller must terminate the pool).  The supervision policy in
    :mod:`repro.sim.supervisor` overrides the hooks.
    """

    heartbeat_interval = 0.0
    poll_interval = replica_timeout = hang_timeout = deadline_at = None

    def __init__(self):
        self.errors = []

    def halted(self):
        return bool(self.errors)

    def attempt(self, index):
        return 1

    def worker_joined(self, wid):
        pass

    def replica_started(self, index):
        pass

    def replica_done(self, replica):
        pass

    def replica_error(self, index, kind, detail):
        self.errors.append((index, kind, detail))

    def worker_lost(self, worker, reason, detail):
        raise SweepWorkerError(
            None, reason, detail + "; use mode=\"supervised\" for crash "
            "recovery", pool_broken=True)

    def deadline_expired(self):
        pass

    def finish(self):
        if self.errors:
            index, kind, detail = self.errors[0]
            raise SweepWorkerError(index, kind, detail,
                                   dropped=len(self.errors) - 1)


class WarmPool:
    """N persistent worker processes warmed for one ``(spec, base_seed)``.

    The pool outlives individual :meth:`run` calls: a sweep dispatches
    its chunks, the workers drain them and go idle, and the next sweep
    over the same spec reuses the same (still warm) processes.  Use
    :func:`shared_pool` for the process-wide reusable instance;
    construct directly for a private, single-sweep pool.
    ``before_replica`` installs a worker-side test hook (see
    :func:`_pool_worker_main`); a pool carrying one must stay private.
    """

    def __init__(self, spec, base_seed, workers, start_method=None,
                 before_replica=None):
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or workers < 1:
            raise ValueError("workers must be an integer >= 1, got %r"
                             % (workers,))
        self.spec = spec
        self.base_seed = base_seed
        self.workers = workers
        self._before_replica = before_replica
        self._context = pool_context(start_method)
        # Warm the parent too: under fork the children then inherit the
        # compile cache outright, and the serial probe/fallback paths
        # in run_sweep benefit as well.
        import repro.sim.poolwarm  # noqa: F401
        self._closed = False
        self._spawned = 0
        self._workers = [self._spawn() for _ in range(workers)]

    def _spawn(self):
        self._spawned += 1
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        # The spec rides the process arguments: the one and only spec
        # transfer this worker will ever see.
        process = self._context.Process(
            target=_pool_worker_main,
            args=(self.spec, self.base_seed, self._before_replica,
                  task_recv, result_send),
            daemon=True, name="sweep-warm-%d" % self._spawned)
        process.start()
        # Close the parent's copies of the child's pipe ends: recv on
        # the result pipe can then raise EOFError when the child dies,
        # which is the crash-detection signal.
        task_recv.close()
        result_send.close()
        return _PoolWorker(self._spawned, process, task_send, result_recv)

    def _respawn(self, worker):
        """Kill and bury ``worker``; a fresh worker takes its slot."""
        _reap(worker)
        fresh = self._spawn()
        self._workers[self._workers.index(worker)] = fresh
        return fresh

    def alive(self):
        """True while every worker process is up and the pool is open."""
        return (not self._closed
                and all(worker.process.is_alive()
                        for worker in self._workers))

    def pids(self):
        return [worker.process.pid for worker in self._workers]

    def run(self, chunks, on_replica=None, policy=None):
        """Dispatch chunks of replica indices; return decoded replicas.

        Streams: ``on_replica`` (the sweep's manifest hook) fires the
        moment each row lands, so a crash mid-dispatch loses at most
        the in-flight chunks.  ``policy`` (a :class:`DispatchPolicy`,
        by default the unsupervised one) decides every failure.  When
        it recovers from a worker loss, the dead worker's slot is
        respawned and the untouched tail of its chunk re-queued as its
        own chunk.  When its sweep deadline passes, every worker still
        mid-replica is replaced, so none stays in the pool.
        """
        if self._closed:
            raise RuntimeError("cannot dispatch on a closed WarmPool")
        if policy is None:
            policy = DispatchPolicy()
        #: Chunks awaiting dispatch: (indices, earliest monotonic time).
        ready = deque((list(chunk), 0.0) for chunk in chunks if chunk)
        idle = list(self._workers)
        for worker in idle:
            policy.worker_joined(worker.wid)
        busy = {}
        replicas = []

        def retry(index, delay):
            if delay is not None:
                ready.append(([index], time.monotonic() + delay))

        def lose(worker, reason, detail):
            busy.pop(worker.results, None)
            retry(worker.current, policy.worker_lost(worker, reason, detail))
            if worker.remaining:
                ready.appendleft((worker.remaining, 0.0))
            fresh = self._respawn(worker)
            policy.worker_joined(fresh.wid)
            idle.append(fresh)

        def dispatch(now):
            for _ in range(len(ready)):
                if not idle or policy.halted():
                    return
                chunk, due = ready[0]
                if due > now:
                    # Backing off: rotate past it so due chunks behind
                    # it still dispatch this round.
                    ready.rotate(-1)
                    continue
                ready.popleft()
                worker = idle.pop()
                worker.remaining, worker.current = chunk, None
                worker.started, worker.last_beat = None, now
                try:
                    worker.tasks.send_bytes(_encode_task(
                        chunk, policy.attempt, policy.heartbeat_interval))
                except (OSError, ValueError):
                    # The worker died while idle: its first replica is
                    # charged the attempt it was dispatched for.
                    worker.current = worker.remaining.pop(0)
                    policy.replica_started(worker.current)
                    lose(worker, "worker-crash",
                         "worker process died before dispatch (exit "
                         "code %r)" % (worker.process.exitcode,))
                    continue
                busy[worker.results] = worker

        def receive(worker, frame, now):
            worker.last_beat = now
            tag = frame[:1]
            if tag == _FRAME_START:
                (index,) = _INDEX.unpack_from(frame, 1)
                worker.remaining.remove(index)
                worker.current, worker.started = index, now
                policy.replica_started(index)
            elif tag == _FRAME_ROW:
                replica = decode_replica_row(frame[1:], self.base_seed)
                worker.current = None
                if on_replica is not None:
                    on_replica(replica)
                replicas.append(replica)
                policy.replica_done(replica)
            elif tag == _FRAME_ERROR:
                index, kind, detail = _decode_error(frame[1:])
                worker.current = None
                retry(index, policy.replica_error(index, kind, detail))
            elif tag == _FRAME_DONE:
                del busy[worker.results]
                idle.append(worker)

        def police(now):
            for worker in list(busy.values()):
                if worker.current is not None \
                        and policy.replica_timeout is not None \
                        and now - worker.started > policy.replica_timeout:
                    lose(worker, "timeout",
                         "exceeded %.3fs wall-clock timeout"
                         % policy.replica_timeout)
                elif policy.hang_timeout is not None \
                        and now - worker.last_beat > policy.hang_timeout:
                    lose(worker, "hang", "no heartbeat for %.3fs"
                         % (now - worker.last_beat))

        def wait_timeout(now):
            """Longest wait that cannot miss a timer or a due retry."""
            if policy.poll_interval is None:
                return None
            timeout = policy.poll_interval
            for _, due in ready:
                if due > now:
                    timeout = min(timeout, due - now)
            return max(timeout, 0.001)

        while ready or busy:
            now = time.monotonic()
            if policy.deadline_at is not None and now > policy.deadline_at:
                policy.deadline_expired()
                for worker in list(busy.values()):
                    busy.pop(worker.results)
                    self._respawn(worker)
                break
            dispatch(now)
            if busy:
                for conn in _connection.wait(list(busy),
                                             timeout=wait_timeout(now)):
                    worker = busy[conn]
                    for frame in _frames(conn):
                        if frame is None:
                            lose(worker, "worker-crash",
                                 "worker process died mid-chunk (exit "
                                 "code %r)" % (worker.process.exitcode,))
                        else:
                            receive(worker, frame, time.monotonic())
            elif ready and not policy.halted():
                # Every pending chunk is backing off.
                time.sleep(wait_timeout(now))
            else:
                break
            police(time.monotonic())
        policy.finish()
        return replicas

    def close(self):
        """Orderly shutdown: ask idle workers to exit, then reap."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.tasks.send_bytes(_FRAME_QUIT)
            except (OSError, ValueError):
                pass  # already dead: _reap just buries it
        deadline = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
        for worker in self._workers:
            _reap(worker, deadline)

    def terminate(self):
        """Hard shutdown: kill workers without draining (interrupt path)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            _reap(worker)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def __repr__(self):
        state = "closed" if self._closed else "warm"
        return ("WarmPool(%d workers, %s, spec=%r)"
                % (self.workers, state, getattr(self.spec, "name", None)))


# -- process-wide shared pool --------------------------------------------------

_shared = {"pool": None, "key": None}


def _shared_key(spec, base_seed, workers):
    return (json.dumps(spec.as_dict(), sort_keys=True, default=str),
            repr(base_seed), int(workers))


def shared_pool(spec, base_seed, workers):
    """The process-wide warm pool for ``(spec, base_seed, workers)``.

    Returns ``(pool, reused)``.  A live pool warmed for the same key is
    handed back as-is (``reused=True``) — this is what lets a resumed
    sweep, a sweep-after-failed-sweep, or a benchmark loop skip pool
    start-up entirely.  Any key change closes the old pool first: one
    warm pool per process, never a leak-prone collection of them.
    """
    key = _shared_key(spec, base_seed, workers)
    pool = _shared["pool"]
    if pool is not None and _shared["key"] == key and pool.alive():
        return pool, True
    shutdown_shared_pool()
    pool = WarmPool(spec, base_seed, workers)
    _shared["pool"] = pool
    _shared["key"] = key
    return pool, False


def invalidate_shared_pool(pool):
    """Terminate ``pool``; drop it from the shared slot if it is there."""
    pool.terminate()
    if _shared["pool"] is pool:
        _shared["pool"] = None
        _shared["key"] = None


def shutdown_shared_pool():
    """Close the shared pool, if any (atexit hook, key changes, tests)."""
    pool = _shared["pool"]
    _shared["pool"] = None
    _shared["key"] = None
    if pool is not None:
        pool.close()


atexit.register(shutdown_shared_pool)
