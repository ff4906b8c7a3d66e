"""The three replica workloads, their units and their output checks.

Every workload is a closed loop: a *rotation* is a fixed list of units,
each unit starts when the previous one returns, and a *cycle* is a
fixed number of rotations over which every campaign's inputs run once
each.  Whole cycles repeat while one more ends the window nearer to
``--seconds``.  Before the window, each campaign's first unit runs once
untimed (the warm-up), so every timed sample is a warm one.  One unit is

* ``sweep-rotate``: one quick-preset ``run_sweep`` in ``auto`` mode;
* ``paper-scale``: one in-process ``run_replica`` at a fixed size;
* ``checkpoint-resume``: one quick ``run_checkpointed`` with periodic
  checkpoints, an ``interrupt_after`` cut halfway and a replay-verified
  ``resume_checkpointed``.

Inputs are a pure function of the seed and the rotation number: each
workload has one fixed list of inputs per campaign, a cycle runs every
entry once, and the seed only sets where the cycle starts.  So every
run times the same inputs, each as often as any other, whatever its
seed and however many cycles fit.  A campaign's cost depends strongly
on its input (a quick Stuxnet checkpoint unit takes 0.5 or 0.8 s, a
paper-scale Flame run 0.6 to 2.5 s), and a run that timed another mix
of inputs would read another median.  Every output is compared with
the behaviour digests in ``expected.json``, recorded once by
``record_expected.py``.  A digest mismatch, an exception or a sweep
failure counts as a failed operation; it never aborts the run.

Importing this module has no side effects and imports only the
standard library; ``repro`` is imported by :func:`load`.
"""

import gc
import json
import os
import shutil
import time

from layers import CAMPAIGNS, POOL, REPLICA, Tracer, layer_metrics

WORKLOADS = ("sweep-rotate", "paper-scale", "checkpoint-resume")

#: Rotations per cycle, per workload: how many distinct inputs each
#: campaign runs on.  A cycle takes about 27 s on ``sweep-rotate`` and
#: 11-15 s on the others, on a 2-core VM.
CYCLE = {"sweep-rotate": 2, "paper-scale": 3, "checkpoint-resume": 4}

#: Replicas per sweep in ``sweep-rotate``.
SWEEP_REPLICAS = 8

#: The paper's fault-tolerance ablation: no faults, then two profiles.
FAULT_PROFILES = (None, "flaky-network", "takedown-sweep")

#: Flame and Shamoon run at CLI defaults (``python -m repro <campaign>``)
#: except Shamoon's host count: its 1,000-host default peaks at 4.1 GB,
#: so it runs at 300 hosts, where the VFS still takes most of the run.
#: Stuxnet (984 centrifuges) runs 45 of its default 180 days, still more
#: than one 27-day attack sequence, and the epidemic 150,000 of its
#: default 10^6 hosts over all 30 epochs.  At the defaults a run takes
#: 4 and 7 s, so only two of each fit into a 30 s window, and their
#: medians spread by a quarter between runs of the same code; at these
#: sizes each takes about 1.4 s and a window holds six.
PAPER_PARAMS = {
    "stuxnet": {"centrifuge_count": 984, "duration_days": 45},
    "flame": {"victim_count": 10, "duration_weeks": 2},
    "shamoon": {"host_count": 300},
    "stuxnet-epidemic": {"host_count": 150_000, "epochs": 30,
                         "initial_infections": 5, "promote_samples": 2},
}

#: Periodic checkpoint interval for ``checkpoint-resume``, in events.
CHECKPOINT_EVERY = 5000

#: Iterations of the speed probe timed between units (about 0.1 s on
#: a 2-core VM).
PROBE_ITERATIONS = 1_000_000

#: Seconds of the speed probe at the reference machine speed.  Every
#: reported time is scaled to that speed; see :func:`timed`.
REFERENCE_PROBE_S = 0.1

#: Rotation number of the warm-up units.  Inputs cycle, so this picks
#: recorded inputs like any other rotation.
WARM_UP_ROTATION = -1

#: Digests are stored and compared as this many hex characters.
DIGEST_CHARS = 16

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def calibrate(iterations):
    """Seconds for a fixed pure-Python loop: a machine-speed probe."""
    started = time.perf_counter()
    acc = 0
    for index in range(iterations):
        acc = (acc * 31 + index) % 1000003
    return time.perf_counter() - started


def probe_scale(before, after):
    """Factor taking a time measured between two speed probes to the
    reference machine speed."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


def input_slot(workload, seed, rotation):
    """Position in ``workload``'s input cycle of one rotation's units."""
    return (seed + rotation) % CYCLE[workload]


def sweep_base_seed(slot, profile):
    """Base seed of one sweep: distinct per input slot and profile."""
    return slot * len(FAULT_PROFILES) + FAULT_PROFILES.index(profile)


def paper_inputs(slot):
    """``(base seed, replica index)`` of one paper-scale run."""
    return 0, slot


def checkpoint_inputs(slot):
    """``(base seed, replica index)`` of one checkpoint-resume unit,
    drawn from the no-fault sweep inputs so the digests are shared."""
    sweeps = CYCLE["sweep-rotate"]
    return sweep_base_seed(slot % sweeps, None), slot // sweeps


def recorded_shape():
    """What ``expected.json`` must have been recorded for."""
    return {"cycle": CYCLE, "sweep_replicas": SWEEP_REPLICAS,
            "fault_profiles": list(FAULT_PROFILES),
            "paper_params": PAPER_PARAMS}


def spec_key(campaign, profile):
    return campaign if profile is None else "%s+%s" % (campaign, profile)


def rotation_keys():
    """Sweep-rotate order: each profile in turn across every campaign."""
    return [(campaign, profile) for profile in FAULT_PROFILES
            for campaign in CAMPAIGNS]


def load():
    """Import the program's public entry points (after ``sys.path``)."""
    from repro.core import ensemble, resume
    from repro.sim import sweep, workerpool

    return {"ensemble": ensemble, "resume": resume, "sweep": sweep,
            "workerpool": workerpool}


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def _canonical_shape():
    """``recorded_shape()`` as it reads back from JSON."""
    return json.loads(_canonical(recorded_shape()))


class Outcome:
    """Operations attempted and failed, plus what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


class Context:
    """Everything a run needs after set-up: specs, expectations, dirs."""

    def __init__(self, workload, seed, workers, root):
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.api = load()
        ensemble = self.api["ensemble"]
        self.digest = ensemble.trace_digest
        with open(EXPECTED_PATH, encoding="utf-8") as stream:
            expected = json.load(stream)
        if expected["shape"] != _canonical_shape():
            raise RuntimeError("expected.json was recorded for %s, not %s"
                               % (_canonical(expected["shape"]),
                                  _canonical(recorded_shape())))
        self.expected_quick = expected["quick"]
        self.expected_paper = expected["paper"]
        self.quick_specs = {
            (campaign, profile): ensemble.CampaignSpec.quick(
                campaign, fault_profile=profile)
            for campaign in CAMPAIGNS for profile in FAULT_PROFILES}
        self.paper_specs = {
            campaign: ensemble.CampaignSpec(campaign,
                                            params=PAPER_PARAMS[campaign])
            for campaign in CAMPAIGNS}
        self.workdir = None
        if workload == "checkpoint-resume":
            self.workdir = os.path.join(root, ".perfbench_work",
                                        "ckpt-%d" % os.getpid())
            os.makedirs(self.workdir, exist_ok=True)
        if workload == "sweep-rotate":
            # Start the forkserver and mint one pool: a sweep user pays
            # this once per process, not once per sweep.
            workerpool = self.api["workerpool"]
            spec = self.quick_specs[(CAMPAIGNS[0], None)]
            workerpool.WarmPool(spec, sweep_base_seed(self.slot(0), None),
                                workers).close()

    def slot(self, rotation):
        """Input-cycle position of ``rotation``'s units."""
        return input_slot(self.workload, self.seed, rotation)

    def close(self):
        """Stop every process and remove every file this run made."""
        self.api["workerpool"].shutdown_shared_pool()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            parent = os.path.dirname(self.workdir)
            if os.path.isdir(parent) and not os.listdir(parent):
                os.rmdir(parent)
        stop_helper_processes()


def stop_helper_processes():
    """Stop and reap the forkserver and resource tracker, if running.

    ``multiprocessing`` starts both on first use of the forkserver
    context and leaves them to exit after the parent; the benchmark
    must wait for every process it caused to start.
    """
    import multiprocessing.forkserver
    import multiprocessing.resource_tracker

    for helper in (multiprocessing.forkserver._forkserver,
                   multiprocessing.resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# -- units --------------------------------------------------------------------

def sweep_unit(ctx, outcome, rotation, campaign, profile, mode="auto"):
    """One quick sweep; returns the ``SweepResult`` (None on error)."""
    sweep = ctx.api["sweep"]
    key = spec_key(campaign, profile)
    base = sweep_base_seed(ctx.slot(rotation), profile)
    expected = ctx.expected_quick[key][str(base)]
    config = sweep.SweepConfig(replicas=SWEEP_REPLICAS, workers=ctx.workers,
                               base_seed=base, mode=mode)
    try:
        result = sweep.run_sweep(ctx.quick_specs[(campaign, profile)],
                                 config)
    except Exception as exc:
        outcome.record(SWEEP_REPLICAS, SWEEP_REPLICAS,
                       "%s: %s: %s" % (key, type(exc).__name__, exc))
        return None
    got = {replica.index: replica.trace_digest[:DIGEST_CHARS]
           for replica in result.replicas}
    wrong = [index for index, digest in enumerate(expected)
             if got.get(index) != digest]
    outcome.record(SWEEP_REPLICAS, len(wrong),
                   "%s: replicas %s differ from expected.json or failed"
                   % (key, wrong) if wrong else None)
    return result


def paper_unit(ctx, outcome, rotation, campaign):
    """One paper-scale run; returns the ``ReplicaResult`` (or None)."""
    ensemble = ctx.api["ensemble"]
    base, index = paper_inputs(ctx.slot(rotation))
    try:
        result = ensemble.run_replica(ctx.paper_specs[campaign], index,
                                      base)
    except Exception as exc:
        outcome.record(1, 1, "%s: %s: %s"
                       % (campaign, type(exc).__name__, exc))
        return None
    wrong = result.trace_digest[:DIGEST_CHARS] != \
        ctx.expected_paper[campaign][index]
    outcome.record(1, int(wrong), "%s: digest differs from expected.json"
                   % campaign if wrong else None)
    return result


def checkpoint_unit(ctx, outcome, rotation, campaign):
    """Record, cut halfway, resume; returns the resumed run's kernel,
    or None on failure."""
    ensemble = ctx.api["ensemble"]
    resume = ctx.api["resume"]
    spec = ctx.quick_specs[(campaign, None)]
    base, index = checkpoint_inputs(ctx.slot(rotation))
    seed = ensemble.replica_seed(base, index)
    directory = os.path.join(ctx.workdir, campaign)
    meta = {"campaign": campaign, "seed": seed}

    def factory():
        return spec.build(seed)

    try:
        recorded = resume.run_checkpointed(factory, directory, meta=meta,
                                           every_events=CHECKPOINT_EVERY)
        keep = max(1, len(recorded.store.entries()) // 2)
        resume.interrupt_after(directory, keep)
        resumed = resume.resume_checkpointed(factory, directory, meta=meta)
    except Exception as exc:
        outcome.record(1, 1, "%s: %s: %s"
                       % (campaign, type(exc).__name__, exc))
        return None
    problems = []
    expected = ctx.expected_quick[campaign][str(base)][index]
    if ctx.digest(recorded.kernel.trace)[:DIGEST_CHARS] != expected:
        problems.append("recorded digest differs from expected.json")
    if ctx.digest(resumed.kernel.trace)[:DIGEST_CHARS] != expected:
        problems.append("resumed digest differs from expected.json")
    if _canonical(resumed.result) != _canonical(recorded.result):
        problems.append("resumed result differs from the uninterrupted one")
    if resumed.short_circuited or resumed.verified != keep:
        problems.append("resume verified %d of %d checkpoints"
                        % (resumed.verified, keep))
    outcome.record(1, int(bool(problems)), "%s: %s"
                   % (campaign, "; ".join(problems)) if problems else None)
    return resumed.kernel


# -- timed loop ---------------------------------------------------------------

def _units(ctx, outcome, mode="auto"):
    """The rotation as ``(campaign, callable(rotation))`` pairs."""
    if ctx.workload == "sweep-rotate":
        return [(campaign, lambda r, c=campaign, p=profile:
                 sweep_unit(ctx, outcome, r, c, p, mode))
                for campaign, profile in rotation_keys()]
    if ctx.workload == "paper-scale":
        return [(campaign, lambda r, c=campaign:
                 paper_unit(ctx, outcome, r, c))
                for campaign in CAMPAIGNS]
    return [(campaign, lambda r, c=campaign:
             checkpoint_unit(ctx, outcome, r, c))
            for campaign in CAMPAIGNS]


def warm_up(units):
    """Run each campaign's first unit once, untimed; its outputs are
    still checked.  Returns the seconds each took.

    The first run of a campaign in a process is the slowest (at the
    CLI-default sizes about 1.5 s more for Stuxnet, 2.5 s for the
    epidemic).  Timed, it would make a campaign's median depend on how
    many cycles fit the window, so on the program's pace rather than its
    cost.  A unit's time also depends on what ran just before it (a
    CLI-default Stuxnet run after Shamoon took ~1 s longer than after
    the epidemic), so the campaigns warm up in the
    order of their last units in the rotation: the first timed unit then
    follows the same campaign as it does in every later rotation.
    """
    last = {campaign: position for position, (campaign, _) in
            enumerate(units)}
    first = {}
    for campaign, unit in units:
        first.setdefault(campaign, unit)
    seconds = {}
    for campaign in sorted(first, key=last.get):
        started = time.perf_counter()
        first[campaign](WARM_UP_ROTATION)
        gc.collect()
        seconds[campaign] = time.perf_counter() - started
    return seconds


def _replicas_in(ctx, result):
    if ctx.workload == "sweep-rotate":
        return len(result.replicas) if result is not None else 0
    return 1 if result is not None else 0


def timed(ctx, seconds):
    """Closed loop over whole cycles for about ``seconds``, after the
    warm-up.

    At least one cycle runs; past that, cycles repeat while the window
    would end nearer to ``seconds`` with one more cycle, at the last
    one's pace, than without it.  Every cycle times each campaign's
    inputs once, so how many cycles fit changes how many samples a
    median has, not which inputs they are.  Returns the outcome and the
    per-campaign unit samples.

    The speed of this class of shared VM drifts by a fifth and more
    over tens of seconds, and every campaign slows down with it, so
    runs of the same code a minute apart read medians up to a quarter
    apart.
    A fixed pure-Python loop (the speed probe) is therefore timed
    between every two units, and each unit's time is scaled by
    ``REFERENCE_PROBE_S`` over the mean of the probes on either side of
    it: the time the unit would take at the reference speed.  The
    probe is the benchmark's own code, so a program change moves the
    scaled times as it moves the raw ones.  Raw times are returned too.

    Campaign objects are reference cycles, so a unit's garbage outlives
    it until a full collection, which then lands inside some later unit
    and scans gigabytes it did not make.  Each unit therefore ends with
    a full collection, timed as part of it: every unit starts from the
    same heap, and the program's cyclic garbage is paid for, always by
    the unit that made it.
    """
    outcome = Outcome()
    units = _units(ctx, outcome)
    warm_up_s = warm_up(units)
    samples = {campaign: [] for campaign in CAMPAIGNS}
    raw = {campaign: [] for campaign in CAMPAIGNS}
    replicas = 0
    busy = 0.0
    started = time.perf_counter()
    probe = calibrate(PROBE_ITERATIONS)
    probes = [probe]
    last = 0.0
    rotations = 0
    while rotations == 0 or \
            time.perf_counter() - started + last / 2 <= seconds:
        cycle_started = time.perf_counter()
        for _ in range(CYCLE[ctx.workload]):
            for campaign, unit in units:
                unit_started = time.perf_counter()
                result = unit(rotations)
                replicas += _replicas_in(ctx, result)
                result = None
                gc.collect()
                elapsed = time.perf_counter() - unit_started
                after = calibrate(PROBE_ITERATIONS)
                scaled = elapsed * probe_scale(probe, after)
                probe = after
                probes.append(probe)
                raw[campaign].append(elapsed)
                samples[campaign].append(scaled)
                busy += scaled
            rotations += 1
        last = time.perf_counter() - cycle_started
    return outcome, {"samples": samples, "raw_samples": raw,
                     "probes_s": probes, "replicas": replicas,
                     "busy_s": busy, "rotations": rotations,
                     "warm_up_s": warm_up_s,
                     "window_s": time.perf_counter() - started}


# -- traced pass --------------------------------------------------------------

def _extra():
    return {"trace_records": 0, "events_dispatched": 0, "host_epochs": 0,
            "probe_s": 0.0, "retry_attempts": 0, "retry_succeeded": 0,
            "overhead": 0.0}


def _count_retries(extra, snapshot):
    for name, key in (("retry.attempts", "retry_attempts"),
                      ("retry.succeeded", "retry_succeeded")):
        entry = snapshot.get(name)
        if entry is not None:
            extra[key] += entry["value"]


def _drain_built(tracer, extra):
    """Host-epochs of epidemic campaigns built during the last unit."""
    for campaign in tracer.built:
        model = getattr(campaign, "model", None)
        if model is not None:
            extra["host_epochs"] += model.pool.count * model.epoch
    tracer.built.clear()


def _count_result(ctx, extra, result):
    """Add one traced unit's trace records, events and retries."""
    if ctx.workload == "sweep-rotate":
        for replica in result.replicas:
            extra["trace_records"] += replica.trace_records
            extra["events_dispatched"] += replica.events_dispatched
            _count_retries(extra, replica.metrics)
    elif ctx.workload == "paper-scale":
        extra["trace_records"] += result.trace_records
        extra["events_dispatched"] += result.events_dispatched
        _count_retries(extra, result.metrics)
    else:
        extra["trace_records"] += len(result.trace)
        extra["events_dispatched"] += result.dispatched_events
        _count_retries(extra, result.metrics.snapshot())


def _traced_unit(ctx, tracer, extra, campaign, unit):
    """Run ``unit`` of rotation 0 with the in-replica wrappers
    installed; returns its seconds."""
    tracer.campaign = campaign
    with tracer.installed(REPLICA):
        started = time.perf_counter()
        result = unit(0)
        elapsed = time.perf_counter() - started
        with tracer.paused():
            _drain_built(tracer, extra)
            if result is not None:
                _count_result(ctx, extra, result)
            result = None
            gc.collect()
    return elapsed


def traced(ctx):
    """One traced rotation, and the untraced one it is compared with.

    Returns ``(outcome, per-layer metrics, tracer)``.  The work is
    fixed (not time-bound), so exact counts repeat for a seed.  After
    the warm-up, each unit runs untraced and traced, back to back, on
    the same inputs and in the same mode, so ``trace.overhead`` compares
    warm runs made under the same machine conditions.
    """
    outcome = Outcome()
    tracer = Tracer()
    extra = _extra()
    warm_up(_units(ctx, outcome))
    mode = "auto"
    if ctx.workload == "sweep-rotate":
        # The pool, timed from the parent, on the real auto-mode path.
        with tracer.installed(POOL):
            for campaign, profile in rotation_keys():
                tracer.campaign = campaign
                result = sweep_unit(ctx, outcome, 0, campaign, profile)
                gc.collect()
                if result is not None:
                    extra["probe_s"] += \
                        result.dispatch.get("probe_seconds") or 0.0
        # Wrappers do not reach pool workers, so the in-replica layers
        # come from serial passes over the same specs and indices.
        mode = "serial"
    # Which side of a pair runs first alternates per campaign: Shamoon,
    # for one, keeps speeding up over its first few runs in a process,
    # and would otherwise favour whichever side always ran second.
    untraced_s = traced_s = 0.0
    pairs = {campaign: 0 for campaign in CAMPAIGNS}
    for campaign, unit in _units(ctx, outcome, mode):
        order = (False, True) if pairs[campaign] % 2 == 0 else (True, False)
        pairs[campaign] += 1
        for with_trace in order:
            if with_trace:
                traced_s += _traced_unit(ctx, tracer, extra, campaign, unit)
            else:
                started = time.perf_counter()
                result = unit(0)
                untraced_s += time.perf_counter() - started
                result = None
                gc.collect()
    extra["overhead"] = traced_s / untraced_s - 1.0
    tracer.campaign = None
    return outcome, layer_metrics(tracer, extra), tracer
