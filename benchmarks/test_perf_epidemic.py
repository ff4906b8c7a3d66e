"""Epidemic-tier benchmarks: aggregate stepping throughput at scale.

Two measurements, written to ``BENCH_epidemic.json`` at the repository
root so CI tracks the hybrid tier's perf trajectory across PRs:

1. **Aggregate stepping** — the 10^6-host Stuxnet scenario through the
   pool tier, reported as host-epochs per second of wall time.  The
   acceptance floor (>= 10^5 hosts/second) is asserted here: below it,
   the struct-of-arrays tier has regressed to object-tier costs and the
   whole point of the hybrid design is gone.
2. **Fidelity ratio** — the same profile at oracle-scale (full
   ``WindowsHost`` objects, per-host recounting) vs the pool tier,
   reported for context as a ratio of interleaved minimums (a single
   sub-millisecond pool run is too noisy to divide by).  No floor: the
   ratio is informative, the aggregate floor above is the contract.

``--quick`` shrinks the epoch count (never the 10^6 population — the
floor is only meaningful at scale) so CI finishes in seconds.
"""

import time
from pathlib import Path

from _bench import interleaved_minimums, update_bench

from repro.core import CampaignWorld
from repro.epidemic import EpidemicModel, FullFidelityEpidemic
from repro.epidemic.scenarios import stuxnet_profile
from repro.sim import Kernel

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_epidemic.json"
BENCHMARK = "epidemic-hybrid-tier"

#: Acceptance criterion: the aggregate tier must step at least this
#: many host-epochs per second of wall time on the 10^6-host scenario.
HOSTS_PER_SECOND_FLOOR = 100_000.0

POOL_HOSTS = 1_000_000
ORACLE_HOSTS = 200


def _build_pool(hosts, epochs, seed):
    """A started pool-tier epidemic and the call that steps it to the
    end."""
    kernel = Kernel(seed=seed)
    model = EpidemicModel(kernel, stuxnet_profile(), hosts, epochs)
    model.seed_initial(5)
    model.start()
    return model, lambda: kernel.run(until=model.horizon_seconds())


def _build_oracle(hosts, epochs, seed):
    oracle = FullFidelityEpidemic(CampaignWorld(seed=seed),
                                  stuxnet_profile(), hosts, epochs)
    oracle.seed_initial(5)
    return oracle


def _run_pool(hosts, epochs, seed=2010):
    """Build (untimed) then run (timed) one pool-tier epidemic."""
    model, step = _build_pool(hosts, epochs, seed)
    start = time.perf_counter()
    step()
    return model, time.perf_counter() - start


def test_aggregate_stepping_meets_hosts_per_second_floor(quick):
    epochs = 6 if quick else 30
    model, elapsed = _run_pool(POOL_HOSTS, epochs)
    assert model.finished
    assert model.curve[-1]["cumulative"] > 5, "epidemic never spread"
    host_epochs = POOL_HOSTS * epochs
    rate = host_epochs / elapsed
    update_bench(BENCH_PATH, BENCHMARK, "aggregate_stepping", {
        "hosts": POOL_HOSTS,
        "epochs": epochs,
        "seconds": round(elapsed, 4),
        "host_epochs_per_second": round(rate, 1),
        "floor": HOSTS_PER_SECOND_FLOOR,
        "cumulative_infections": model.curve[-1]["cumulative"],
    }, quick)
    assert rate >= HOSTS_PER_SECOND_FLOOR, (
        "aggregate tier stepped %d hosts x %d epochs at %.0f "
        "host-epochs/s — below the %.0f floor"
        % (POOL_HOSTS, epochs, rate, HOSTS_PER_SECOND_FLOOR))


def test_fidelity_ratio_is_reported(quick):
    """Pool vs oracle at a population the oracle can afford; context
    only — the differential suite owns correctness, the floor above
    owns performance."""
    epochs = 4 if quick else 8
    rounds = 5 if quick else 9
    oracle = _build_oracle(ORACLE_HOSTS, epochs, seed=31)
    model, step = _build_pool(ORACLE_HOSTS, epochs, seed=31)
    oracle.run()
    step()
    assert oracle.curve == model.curve
    # Build every round's runs up front: only stepping is timed.
    oracles = [_build_oracle(ORACLE_HOSTS, epochs, seed=31).run
               for _ in range(rounds)]
    pools = [_build_pool(ORACLE_HOSTS, epochs, seed=31)[1]
             for _ in range(rounds)]
    oracle_s, pool_s = interleaved_minimums(
        lambda: oracles.pop()(), lambda: pools.pop()(), rounds)
    update_bench(BENCH_PATH, BENCHMARK, "fidelity_ratio", {
        "hosts": ORACLE_HOSTS,
        "epochs": epochs,
        "rounds": rounds,
        "pool_seconds": pool_s,
        "oracle_seconds": oracle_s,
        "oracle_over_pool": round(oracle_s / max(pool_s, 1e-9), 2),
    }, quick)
