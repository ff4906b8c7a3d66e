"""End-to-end replica benchmark: one command, every metric, every check.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-rotate --seed 3 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs one fixed traced pass and reports the
per-layer metrics (see ``perfbench/README.md``).  Human-readable lines
start with ``#``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.

The module imports nothing but the standard library at import time and
does all its work under the ``__main__`` guard: forkserver pool workers
import the main module, and a driver with side effects at import would
re-run itself inside every worker.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

#: Fresh-process set-ups per run; ``setup_s`` is their median.  Half
#: run before the timed window and half after it, so the median covers
#: the machine's speed over the whole run, not only at its start.
SETUP_SAMPLES = 8

#: Iterations of the calibration loop (about 0.2 s on a 2-core VM).
CALIBRATION_ITERATIONS = 2_000_000

READY = "perfbench-setup-ready"


def effective_cores():
    return len(os.sched_getaffinity(0))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _locate_program(root):
    """Put ``<root>/src`` on the import path; False if it is missing."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    # Spawned and forkserver children import repro too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    return True


def _setup_sample(argv, workloads):
    """Seconds from launching a fresh driver to its first timed unit,
    raw and scaled to the reference machine speed by speed probes
    timed just before and after it."""
    before = workloads.calibrate(workloads.PROBE_ITERATIONS)
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)] + argv
        + ["--setup-probe"],
        stdout=subprocess.PIPE, text=True)
    try:
        for line in child.stdout:
            if line.strip() == READY:
                elapsed = time.perf_counter() - started
                break
        else:
            raise RuntimeError("set-up probe exited without getting ready")
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait()
    if code != 0:
        raise RuntimeError("set-up probe exited with code %d" % code)
    after = workloads.calibrate(workloads.PROBE_ITERATIONS)
    return elapsed, elapsed * workloads.probe_scale(before, after)


def _peak_rss_mb():
    """Largest resident set of the driver or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _end_to_end(timing, setup_samples, peak_rss_mb):
    samples = timing["samples"]
    metrics = {
        "setup_s": (statistics.median([s for _, s in setup_samples]), "s"),
        "replicas_per_s": (timing["replicas"] / timing["busy_s"], "1/s"),
    }
    for campaign, values in samples.items():
        metrics["campaign_s.%s" % campaign] = (statistics.median(values),
                                               "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not _locate_program(root):
        print("perfbench: no program sources under %s"
              % os.path.join(root, "src"), file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    workers = effective_cores()
    if args.setup_probe:
        ctx = workloads.Context(args.workload, args.seed, workers, root)
        print(READY, flush=True)
        ctx.close()
        return 0

    from repro.sim.workerpool import pool_start_method

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "input_slot": workloads.input_slot(args.workload, args.seed, 0),
        "trace": args.trace,
        "python": platform.python_version(),
        "effective_cores": workers,
        "pool_start_method": pool_start_method(),
        "workers": workers,
        "seconds": args.seconds,
    }
    print("# header %s" % json.dumps(header, sort_keys=True), flush=True)
    calibration = {"start_s": workloads.calibrate(CALIBRATION_ITERATIONS)}
    probes = 0 if args.trace else SETUP_SAMPLES
    setup_samples = [_setup_sample(argv, workloads)
                     for _ in range(probes // 2)]
    started = time.perf_counter()
    ctx = workloads.Context(args.workload, args.seed, workers, root)
    driver_setup_s = time.perf_counter() - started
    report = {"header": header, "setup_samples_s": setup_samples,
              "driver_setup_s": driver_setup_s}
    try:
        if args.trace:
            outcome, values, tracer = workloads.traced(ctx)
            units = dict(layers.METRICS)
            metrics = {name: (values[name], units[name])
                       for name, _ in layers.METRICS}
            report["layers"] = layers.layer_table(tracer)
        else:
            outcome, timing = workloads.timed(ctx, args.seconds)
            report["timing"] = timing
            metrics = None
    finally:
        ctx.close()
    setup_samples += [_setup_sample(argv, workloads)
                      for _ in range(probes - probes // 2)]
    if metrics is None:
        metrics = _end_to_end(timing, setup_samples, _peak_rss_mb())
    calibration["end_s"] = workloads.calibrate(CALIBRATION_ITERATIONS)
    report["calibration"] = calibration
    report["problems"] = outcome.problems
    for problem in outcome.problems:
        print("# FAILED %s" % problem, flush=True)
    print("# calibration %s" % json.dumps(calibration, sort_keys=True))
    _write_report(root, args, report)
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def _write_report(root, args, report):
    """Keep the run's samples and spans for later reading."""
    directory = os.path.join(root, ".perfbench_out")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=1, sort_keys=True, default=str)
        stream.write("\n")


if __name__ == "__main__":
    sys.exit(main())
