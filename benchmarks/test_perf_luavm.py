"""Lua VM benchmarks: bytecode backend vs the tree-walking reference.

Two measurements, written together to ``BENCH_luavm.json`` at the
repository root so CI can track the perf trajectory across PRs:

1. **Module workload** — a full Flame replica lifecycle through
   ``FlameModuleManager``: load FLASK + JIMMY, run a ``collect``, scan
   a file batch, hot-swap JIMMY to v2 (§V.D self-updating modularity),
   scan again.  Run on both backends; the acceptance floor (bytecode
   >= 3x faster) is asserted here.
2. **Module load** — loading an already-compiled script into a fresh
   replica.  The tree walker re-parses per replica; the bytecode
   backend hits the process-wide compile cache keyed by source digest,
   so this is where sweeps with many replicas win big.

Timing methodology: this must stay meaningful on noisy shared boxes,
so each measurement interleaves tree/bytecode rounds, times them with
``time.process_time`` (CPU, not wall), and reports the ratio of
per-backend minimums.  The minimum of several rounds converges on the
true cost; a single wall-clock pair can swing 2x either way.

``--quick`` shrinks round/repetition counts so CI finishes in seconds.
"""

import time
from pathlib import Path

from _bench import interleaved_minimums, update_bench

from repro.luavm.compiler import clear_compile_cache, compile_cache_stats
from repro.luavm.interpreter import _to_lua
from repro.malware.flame.modules import FlameModuleManager
from repro.malware.flame.scripts import (
    FLASK_SOURCE,
    JIMMY_SOURCE,
    JIMMY_V2_SOURCE,
    warm_compile_cache,
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_luavm.json"
BENCHMARK = "luavm-bytecode"

#: Acceptance criterion: the bytecode backend must beat the tree walker
#: by at least this factor on the Flame module workload.
MODULE_WORKLOAD_FLOOR = 3.0

#: The per-replica load path (warm compile cache vs tree re-parse)
#: measures far higher (~20-30x); assert a conservative slice of it.
MODULE_LOAD_FLOOR = 5.0

#: Files per JIMMY scan.  Matches the per-collect batch a campaign
#: replica sees, and keeps the (backend-independent) host-boundary
#: conversion from drowning out the VM execution being compared.
FILE_BATCH = 8

_EXTS = ("doc", "pdf", "jpg", "txt", "xls", "ppt", "dwg", "zip")


def _host_fixtures():
    """Sysinfo + file batch shaped like the campaign's host model,
    pre-converted to LuaTable so both backends measure VM execution
    rather than the shared python->Lua conversion layer."""
    sysinfo = _to_lua({
        "os": "WinXP", "hostname": "victim-01", "volumes": ["c", "d"],
        "tcp_connections": ["10.0.0.7:445"], "cookies": ["session"],
        "software": ["office", "autocad"],
    })
    files = _to_lua([
        {"name": "f%d.%s" % (i, _EXTS[i % len(_EXTS)]),
         "ext": _EXTS[i % len(_EXTS)],
         "size": 1000 + 37 * i,
         "path": "/home/user/secret_design_%d" % i}
        for i in range(FILE_BATCH)
    ])
    return sysinfo, files


def _replica_lifecycle(backend, sysinfo, files):
    """One Flame replica's module lifecycle; returns the scan results."""
    manager = FlameModuleManager(backend=backend)
    manager.load("flask", FLASK_SOURCE)
    manager.load("jimmy", JIMMY_SOURCE)
    manager.call("flask", "collect", sysinfo)
    first = manager.call("jimmy", "scan", files)
    assert manager.hot_swap("jimmy", JIMMY_V2_SOURCE, at_time=1.0)
    second = manager.call("jimmy", "scan", files)
    return first, second


def test_module_workload_speedup(quick):
    repetitions = 8 if quick else 20
    rounds = 5 if quick else 9
    sysinfo, files = _host_fixtures()

    clear_compile_cache()
    warm_compile_cache()
    # Warmup + equivalence: both backends must produce identical scan
    # results before their speed is compared.
    tree_result = _replica_lifecycle("tree", sysinfo, files)
    byte_result = _replica_lifecycle("bytecode", sysinfo, files)
    assert byte_result == tree_result

    tree_s, byte_s = interleaved_minimums(
        lambda: [_replica_lifecycle("tree", sysinfo, files)
                 for _ in range(repetitions)],
        lambda: [_replica_lifecycle("bytecode", sysinfo, files)
                 for _ in range(repetitions)],
        rounds, clock=time.process_time,
    )
    speedup = tree_s / byte_s if byte_s else float("inf")
    cache = compile_cache_stats()

    update_bench(BENCH_PATH, BENCHMARK, "module_workload", {
        "file_batch": FILE_BATCH,
        "repetitions": repetitions,
        "rounds": rounds,
        "tree_cpu_seconds": tree_s,
        "bytecode_cpu_seconds": byte_s,
        "speedup": speedup,
        "speedup_floor": MODULE_WORKLOAD_FLOOR,
        "compile_cache": cache,
    }, quick)
    print()
    print("module workload: tree %.4fs, bytecode %.4fs -> %.2fx "
          "(cache: %d entries, %d hits)"
          % (tree_s, byte_s, speedup, cache["entries"], cache["hits"]))
    print("wrote %s" % BENCH_PATH)

    # Every replica re-loads the three Flame scripts, so the shared
    # cache must have absorbed all but the first compilations.
    assert cache["entries"] == 3
    assert cache["hits"] > cache["misses"]

    assert speedup >= MODULE_WORKLOAD_FLOOR, (
        "bytecode backend only %.2fx faster than the tree walker on the "
        "Flame module workload (floor: %.1fx)"
        % (speedup, MODULE_WORKLOAD_FLOOR))


def test_module_load_speedup(quick):
    repetitions = 30 if quick else 80
    rounds = 5 if quick else 9

    clear_compile_cache()
    warm_compile_cache()

    def load_all(backend):
        manager = FlameModuleManager(backend=backend)
        manager.load("flask", FLASK_SOURCE)
        manager.load("jimmy", JIMMY_SOURCE)
        manager.load("jimmy2", JIMMY_V2_SOURCE)

    load_all("tree")
    load_all("bytecode")

    tree_s, byte_s = interleaved_minimums(
        lambda: [load_all("tree") for _ in range(repetitions)],
        lambda: [load_all("bytecode") for _ in range(repetitions)],
        rounds, clock=time.process_time,
    )
    speedup = tree_s / byte_s if byte_s else float("inf")

    update_bench(BENCH_PATH, BENCHMARK, "module_load", {
        "repetitions": repetitions,
        "rounds": rounds,
        "tree_cpu_seconds": tree_s,
        "bytecode_cpu_seconds": byte_s,
        "speedup": speedup,
        "speedup_floor": MODULE_LOAD_FLOOR,
    }, quick)
    print()
    print("module load: tree %.4fs, bytecode %.4fs -> %.2fx"
          % (tree_s, byte_s, speedup))

    assert speedup >= MODULE_LOAD_FLOOR, (
        "cached bytecode module load only %.2fx faster than tree "
        "re-parse (floor: %.1fx)" % (speedup, MODULE_LOAD_FLOOR))
