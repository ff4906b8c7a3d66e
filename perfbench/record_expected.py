"""Record the behaviour digests the benchmark checks its outputs against.

Runs, in-process and serially, every input the workloads can use:

* ``quick``: each quick-preset campaign x fault profile, replicas
  ``0..SWEEP_REPLICAS-1``, at the sweep base seed of every slot of the
  ``sweep-rotate`` input cycle (``checkpoint-resume`` reuses the
  no-fault entries);
* ``paper``: each campaign at paper scale, every replica index of its
  input cycle.

The two parts run side by side in two processes (about a minute on
2 cores; the paper-scale process holds about 1.5 GB), and the result
is written to ``expected.json`` beside this file, with the input shape
it was recorded for.  Re-record only when a change
deliberately alters simulated behaviour, and say so.

Usage, from the root of the repository::

    python3 perfbench/record_expected.py
"""

import concurrent.futures
import json
import multiprocessing
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(result):
    import workloads

    return result.trace_digest[:workloads.DIGEST_CHARS]


def record_quick():
    import workloads

    ensemble = workloads.load()["ensemble"]
    table = {}
    for slot in range(workloads.CYCLE["sweep-rotate"]):
        for profile in workloads.FAULT_PROFILES:
            base = workloads.sweep_base_seed(slot, profile)
            for campaign in workloads.CAMPAIGNS:
                spec = ensemble.CampaignSpec.quick(
                    campaign, fault_profile=profile)
                key = workloads.spec_key(campaign, profile)
                table.setdefault(key, {})[str(base)] = [
                    _digest(ensemble.run_replica(spec, index, base))
                    for index in range(workloads.SWEEP_REPLICAS)]
    return table


def record_paper():
    import workloads

    ensemble = workloads.load()["ensemble"]
    table = {}
    for campaign in workloads.CAMPAIGNS:
        spec = ensemble.CampaignSpec(
            campaign, params=workloads.PAPER_PARAMS[campaign])
        inputs = [workloads.paper_inputs(slot)
                  for slot in range(workloads.CYCLE["paper-scale"])]
        table[campaign] = [
            _digest(ensemble.run_replica(spec, index, base))
            for base, index in inputs]
    return table


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads

    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=context) as executor:
        quick = executor.submit(record_quick)
        paper = executor.submit(record_paper)
        payload = {"shape": workloads.recorded_shape(),
                   "quick": quick.result(), "paper": paper.result()}
    text = json.dumps(payload, indent=1, sort_keys=True)
    # One line per digest list keeps the file short and diffable.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda match: "[%s]" % re.sub(r"\s+", "",
                                                match.group(1)), text)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as stream:
        stream.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
