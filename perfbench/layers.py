"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public entry points of each simulator layer
(kernel dispatch, toy crypto, campaign construction, the winsim VFS,
the Lua VM, replica reduction, the warm worker pool and checkpointing)
with timing shims that live in the benchmark's own files.  Nothing in
``src/`` is edited: wrappers are installed by rebinding the layer's
function or method for the duration of a traced pass and removed
afterwards.

Each call is one span: its layer, the campaign the driver is running,
its duration, and the part of that duration covered by nested spans.
A layer's *self time* is the sum of its span durations minus the
nested parts, so a keygen call inside campaign construction counts
once, under ``crypto.keygen``, and not again under ``core.build``.

Wrappers do not reach forkserver pool workers, so the pool layer is
timed in the parent (see ``POOL`` below) and in-replica layers come
from an in-process pass (``REPLICA`` below).

Importing this module has no side effects; it imports only the
standard library at module level.
"""

import collections
import contextlib
import functools
import importlib
import os
import sys
import time

#: Campaigns the benchmark runs, in metric order.
CAMPAIGNS = ("stuxnet", "flame", "shamoon", "stuxnet-epidemic")

#: Layers whose self time is also reported per campaign.
SELF_TIME_LAYERS = (
    "sim.kernel",
    "crypto.keygen",
    "crypto.stream",
    "core.build",
    "core.docs",
    "winsim.vfs.overwrite",
    "luavm.run",
    "ensemble.reduce",
    "checkpoint.snapshot",
    "checkpoint.write",
)


def _after_kernel_run(tracer, frame, args, kwargs, result):
    tracer.add("sim.kernel.events", result)


def _after_keygen(tracer, frame, args, kwargs, result):
    label = args[0] if args else kwargs.get("label")
    bits = args[1] if len(args) > 1 else kwargs.get("bits", 512)
    tracer.keygen_labels.add((label, bits))


def _after_xor_stream(tracer, frame, args, kwargs, result):
    tracer.add("crypto.stream.bytes", len(args[0]))


def _after_rc4(tracer, frame, args, kwargs, result):
    tracer.add("crypto.stream.bytes", len(args[1]))


def _after_build(tracer, frame, args, kwargs, result):
    tracer.built.append(result)


def _before_docs(tracer, args, kwargs):
    return args[0].vfs.total_bytes()


def _after_docs(tracer, frame, args, kwargs, result):
    tracer.add("core.docs.bytes", args[0].vfs.total_bytes() - frame.token)


def _after_overwrite(tracer, frame, args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    tracer.add("winsim.vfs.overwrite.patched_bytes", len(data))
    # Computed, not observed: the file's length after the call, which
    # is what a whole-file copy moves.
    tracer.add("winsim.vfs.overwrite.file_bytes", result.size)


def _after_pool_init(tracer, frame, args, kwargs, result):
    tracer.add("pool.spawns", args[0].workers)


def _after_pool_run(tracer, frame, args, kwargs, result):
    tracer.add("pool.replica_wall_s", sum(r.wall_seconds for r in result))
    tracer.add("pool.worker_s", args[0].workers * frame.elapsed)


def _after_decode_row(tracer, frame, args, kwargs, result):
    tracer.add("pool.row_bytes", len(args[0]))


def _after_snapshot_kernel(tracer, frame, args, kwargs, result):
    tracer.add("checkpoint.count", 1)


def _after_write_checkpoint(tracer, frame, args, kwargs, result):
    tracer.add("checkpoint.bytes", os.path.getsize(args[0]))


class Target:
    """One wrapped entry point: ``module:attr`` or ``module:Class.attr``."""

    __slots__ = ("layer", "path", "before", "after", "skip_inside")

    def __init__(self, layer, path, before=None, after=None,
                 skip_inside=()):
        self.layer = layer
        self.path = path
        self.before = before
        self.after = after
        self.skip_inside = frozenset(skip_inside)


#: In-replica layers: installed around in-process campaign runs.
REPLICA = (
    Target("sim.kernel", "repro.sim.events:Kernel.run",
           after=_after_kernel_run),
    Target("crypto.keygen", "repro.crypto.rsa:generate_keypair",
           after=_after_keygen),
    Target("crypto.stream", "repro.crypto.ciphers:xor_stream",
           after=_after_xor_stream),
    Target("crypto.stream", "repro.crypto.ciphers:Rc4Cipher.process",
           after=_after_rc4),
    Target("core.build", "repro.core.ensemble:CampaignSpec.build",
           after=_after_build),
    Target("core.docs", "repro.core.environments:seed_user_documents",
           before=_before_docs, after=_after_docs),
    Target("winsim.vfs.overwrite",
           "repro.winsim.vfs:VirtualFileSystem.overwrite_data",
           after=_after_overwrite),
    Target("luavm.run", "repro.luavm.bytevm:BytecodeVM.run"),
    Target("luavm.run", "repro.luavm.bytevm:BytecodeVM.call"),
    Target("luavm.run", "repro.luavm.interpreter:LuaVM.run"),
    Target("luavm.run", "repro.luavm.interpreter:LuaVM.call"),
    Target("ensemble.reduce", "repro.core.ensemble:trace_digest"),
    Target("ensemble.reduce", "repro.core.ensemble:reduce_measurements"),
    # Checkpoints snapshot the metrics registry too; that time belongs
    # to the checkpoint span, not to replica reduction.
    Target("ensemble.reduce", "repro.obs.metrics:MetricsRegistry.snapshot",
           skip_inside=("checkpoint.snapshot",)),
    Target("checkpoint.snapshot", "repro.sim.checkpoint:snapshot_kernel",
           after=_after_snapshot_kernel),
    Target("checkpoint.write", "repro.sim.checkpoint:write_checkpoint",
           after=_after_write_checkpoint),
    Target("resume.replay", "repro.core.resume:resume_checkpointed"),
)

#: Pool layers: installed in the parent around pooled sweeps.
POOL = (
    Target("pool.spawn", "repro.sim.workerpool:WarmPool.__init__",
           after=_after_pool_init),
    Target("pool.spawn", "repro.sim.workerpool:WarmPool.close"),
    Target("pool.spawn", "repro.sim.workerpool:WarmPool.terminate"),
    Target("pool.dispatch", "repro.sim.workerpool:WarmPool.run",
           after=_after_pool_run),
    Target("pool.decode", "repro.sim.workerpool:decode_replica_row",
           after=_after_decode_row),
)


class _Frame:
    __slots__ = ("layer", "child", "token", "elapsed")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0
        self.token = None
        self.elapsed = 0.0


def _resolve(path):
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, name = attr.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span stack, per-(layer, campaign) totals and counters.

    ``campaign`` names the campaign whose work is running; the driver
    sets it around every unit.  ``built`` collects every campaign
    object constructed while tracing, so the driver can read epidemic
    host counts after a unit and then drop the references.
    """

    def __init__(self):
        self.campaign = None
        self.self_s = collections.Counter()
        self.total_s = collections.Counter()
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.keygen_labels = set()
        self.built = []
        self._stack = []
        self._patches = []
        self._paused = False

    # -- recording -------------------------------------------------------

    def add(self, name, amount):
        """Add to counter ``name`` for the current campaign."""
        self.counts[(name, self.campaign)] += amount

    def total(self, name, campaign=None):
        """Counter total over all campaigns, or for one campaign."""
        return _sum(self.counts, name, campaign)

    def layer_self(self, layer, campaign=None):
        return _sum(self.self_s, layer, campaign)

    def layer_total(self, layer, campaign=None):
        return _sum(self.total_s, layer, campaign)

    def layer_calls(self, layer, campaign=None):
        return _sum(self.calls, layer, campaign)

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through untimed (benchmark-side checks)."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def _wrap(self, target, original):
        tracer = self
        layer = target.layer
        before = target.before
        after = target.after
        skip_inside = target.skip_inside
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer._paused or (skip_inside and stack
                                  and stack[-1].layer in skip_inside):
                return original(*args, **kwargs)
            hook_started = clock()
            frame = _Frame(layer)
            if before is not None:
                frame.token = before(tracer, args, kwargs)
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                elapsed = frame.elapsed = ended - started
                key = (layer, tracer.campaign)
                tracer.self_s[key] += elapsed - frame.child
                tracer.total_s[key] += elapsed
                tracer.calls[key] += 1
            if after is not None:
                after(tracer, frame, args, kwargs, result)
            if stack:
                # The parent's child time covers this span and the hook
                # work around it, so tracing cost lands in no layer.
                stack[-1].child += clock() - hook_started
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, targets):
        """Wrap every target, rebinding each alias in ``repro`` modules.

        A module-level function imported by name elsewhere
        (``from repro.crypto.rsa import generate_keypair``) is a second
        reference to the same object; every such reference in a loaded
        ``repro`` module is rebound, or calls through it would escape
        the trace.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            owner, name = _resolve(target.path)
            original = owner.__dict__[name]
            wrapper = self._wrap(target, original)
            setattr(owner, name, wrapper)
            self._patches.append((owner, name, original, wrapper))
            if not isinstance(owner, type):
                for module in _repro_modules():
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, alias, wrapper)

    def uninstall(self):
        """Restore every original, including aliases bound since."""
        for owner, name, original, wrapper in reversed(self._patches):
            setattr(owner, name, original)
            if not isinstance(owner, type):
                for module in _repro_modules():
                    for alias, value in list(vars(module).items()):
                        if value is wrapper:
                            setattr(module, alias, original)
        self._patches = []

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def _sum(counter, name, campaign):
    """Sum of ``counter[(name, owner)]`` over owners matching ``campaign``
    (every owner when ``campaign`` is None)."""
    return sum(value for (key, owner), value in counter.items()
               if key == name and campaign in (None, owner))


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


#: Per-layer metrics, in report order: (name, unit).
METRICS = (
    ("sim.kernel.self_s", "s"),
    ("sim.kernel.events", "count"),
    ("sim.kernel.events_per_s", "1/s"),
    ("sim.kernel.records_per_event", "ratio"),
    ("crypto.keygen.calls", "count"),
    ("crypto.keygen.self_s", "s"),
    ("crypto.keygen.distinct_ratio", "ratio"),
    ("crypto.stream.bytes", "bytes"),
    ("crypto.stream.self_s", "s"),
    ("core.build.self_s", "s"),
    ("core.docs.bytes", "bytes"),
    ("core.docs.self_s", "s"),
    ("winsim.vfs.overwrite.calls", "count"),
    ("winsim.vfs.overwrite.self_s", "s"),
    ("winsim.vfs.copy_amplification", "ratio"),
    ("luavm.run.calls", "count"),
    ("luavm.run.self_s", "s"),
    ("epidemic.host_epochs", "count"),
    ("epidemic.host_epochs_per_s", "1/s"),
    ("ensemble.reduce.self_s", "s"),
    ("pool.spawns", "count"),
    ("pool.spawn_s", "s"),
    ("pool.dispatch_s", "s"),
    ("pool.probe_s", "s"),
    ("pool.utilization", "ratio"),
    ("pool.row_bytes", "bytes"),
    ("sim.retry.attempts", "count"),
    ("sim.retry.success_ratio", "ratio"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.snapshot.self_s", "s"),
    ("checkpoint.write.self_s", "s"),
    ("resume.replay_s", "s"),
    ("trace.overhead", "ratio"),
) + tuple(("%s.self_s.%s" % (layer, campaign), "s")
          for layer in SELF_TIME_LAYERS for campaign in CAMPAIGNS)

#: Counts that repeat exactly for the same code and seed.
EXACT_COUNTS = ("sim.kernel.events", "crypto.keygen.calls",
                "core.docs.bytes", "epidemic.host_epochs",
                "checkpoint.count", "pool.spawns")


def layer_metrics(tracer, extra):
    """Per-layer metric values from one traced pass.

    ``extra`` carries what the driver measured itself: trace records
    and retry counters read from the replica results, epidemic
    host-epochs, pool probe seconds and the tracing overhead.
    """
    kernel_self = tracer.layer_self("sim.kernel")
    events = tracer.total("sim.kernel.events")
    keygen_calls = tracer.layer_calls("crypto.keygen")
    epidemic_self = tracer.layer_self("sim.kernel", "stuxnet-epidemic")
    values = {
        "sim.kernel.self_s": kernel_self,
        "sim.kernel.events": events,
        "sim.kernel.events_per_s": _ratio(events, kernel_self),
        "sim.kernel.records_per_event": _ratio(extra["trace_records"],
                                               extra["events_dispatched"]),
        "crypto.keygen.calls": keygen_calls,
        "crypto.keygen.self_s": tracer.layer_self("crypto.keygen"),
        "crypto.keygen.distinct_ratio": _ratio(len(tracer.keygen_labels),
                                               keygen_calls),
        "crypto.stream.bytes": tracer.total("crypto.stream.bytes"),
        "crypto.stream.self_s": tracer.layer_self("crypto.stream"),
        "core.build.self_s": tracer.layer_self("core.build"),
        "core.docs.bytes": tracer.total("core.docs.bytes"),
        "core.docs.self_s": tracer.layer_self("core.docs"),
        "winsim.vfs.overwrite.calls":
            tracer.layer_calls("winsim.vfs.overwrite"),
        "winsim.vfs.overwrite.self_s":
            tracer.layer_self("winsim.vfs.overwrite"),
        "winsim.vfs.copy_amplification": _ratio(
            tracer.total("winsim.vfs.overwrite.file_bytes"),
            tracer.total("winsim.vfs.overwrite.patched_bytes")),
        "luavm.run.calls": tracer.layer_calls("luavm.run"),
        "luavm.run.self_s": tracer.layer_self("luavm.run"),
        "epidemic.host_epochs": extra["host_epochs"],
        # Epoch stepping runs inside kernel dispatch, so its rate is
        # taken over the epidemic campaign's kernel self time.
        "epidemic.host_epochs_per_s": _ratio(extra["host_epochs"],
                                             epidemic_self),
        "ensemble.reduce.self_s": tracer.layer_self("ensemble.reduce"),
        "pool.spawns": tracer.total("pool.spawns"),
        "pool.spawn_s": tracer.layer_total("pool.spawn"),
        "pool.dispatch_s": tracer.layer_total("pool.dispatch"),
        "pool.probe_s": extra["probe_s"],
        "pool.utilization": _ratio(tracer.total("pool.replica_wall_s"),
                                   tracer.total("pool.worker_s")),
        "pool.row_bytes": tracer.total("pool.row_bytes"),
        "sim.retry.attempts": extra["retry_attempts"],
        "sim.retry.success_ratio": _ratio(extra["retry_succeeded"],
                                          extra["retry_attempts"]),
        "checkpoint.count": tracer.total("checkpoint.count"),
        "checkpoint.bytes": tracer.total("checkpoint.bytes"),
        "checkpoint.snapshot.self_s":
            tracer.layer_self("checkpoint.snapshot"),
        "checkpoint.write.self_s": tracer.layer_self("checkpoint.write"),
        "resume.replay_s": tracer.layer_total("resume.replay"),
        "trace.overhead": extra["overhead"],
    }
    for layer in SELF_TIME_LAYERS:
        for campaign in CAMPAIGNS:
            values["%s.self_s.%s" % (layer, campaign)] = \
                tracer.layer_self(layer, campaign)
    return values


def layer_table(tracer):
    """Every (layer, campaign) cell: self/total seconds and calls."""
    rows = []
    for (layer, campaign) in sorted(tracer.calls, key=str):
        key = (layer, campaign)
        rows.append({"layer": layer, "campaign": campaign,
                     "calls": tracer.calls[key],
                     "self_s": tracer.self_s[key],
                     "total_s": tracer.total_s[key]})
    counters = [{"counter": name, "campaign": campaign, "value": value}
                for (name, campaign), value in sorted(tracer.counts.items(),
                                                      key=str)]
    return {"spans": rows, "counters": counters}
