"""The benchmark's own checks.

Run from the root of the repository (about five minutes on 2 cores)::

    python3 -m pytest perfbench -q

* Exact per-layer counts repeat across two traced runs of the same
  code and seed, on every workload.
* The driver imports without side effects, and leaves no pool worker,
  forkserver or resource tracker running after it exits.
* Without the program's sources the driver fails fast and prints no
  result.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402


def _drive(workload, seed, seconds, trace, cwd=ROOT):
    driver = os.path.join(cwd, "perfbench", "run.py")
    completed = subprocess.run(
        [sys.executable, driver, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return completed


def _result(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _multiprocessing_pids():
    """PIDs of live processes started from ``multiprocessing`` helpers.

    Forkserver workers are forked from the forkserver, so they share
    its command line; the resource tracker has its own.
    """
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as stream:
                cmdline = stream.read()
        except OSError:
            continue
        if b"multiprocessing" in cmdline:
            pids.add(int(entry))
    return pids


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload):
    first = _result(_drive(workload, 5, 1, 1))
    second = _result(_drive(workload, 5, 1, 1))
    assert first["correct"] and second["correct"]
    for name in layers.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["sim.kernel.events"]["value"] > 0
    assert set(first["metrics"]) == {name for name, _ in layers.METRICS}


def test_driver_leaves_no_worker_processes():
    before = _multiprocessing_pids()
    result = _result(_drive("sweep-rotate", 2, 1, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.SWEEP_REPLICAS
    assert _multiprocessing_pids() - before == set()


def test_driver_imports_without_side_effects(capsys):
    before = _multiprocessing_pids()
    spec = importlib.util.spec_from_file_location("perfbench_run", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert capsys.readouterr().out == ""
    assert _multiprocessing_pids() - before == set()
    assert callable(module.main)


def test_driver_fails_fast_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _drive("paper-scale", 0, 1, 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
