"""Capture the pre-pipelining stop-and-wait golden output.

Run once against the stop-and-wait implementation to freeze its observable
behaviour; ``tests/faults/test_transfer_window.py`` then asserts that the
sliding-window engine with ``transfer_window=1`` reproduces this output
exactly (timings, recovery log and the behaviour digest).  The behaviour
digests were recorded while the full JSONL trace of the stop-and-wait
capture still matched, so behaviour equality carries over from it.

    PYTHONPATH=src python tests/faults/golden/capture_stop_and_wait.py
"""

import json
import pathlib

from repro.bench.harness import MigrationExperiment, TestbedConfig
from repro.core import BindingPolicy
from repro.faults import FaultConfig, FaultPlan, FaultSpec, link_target
from repro.obs import Observability
from repro.simcheck import behaviour_digest

GOLDEN = pathlib.Path(__file__).parent / "stop_and_wait_window1.json"


def flap_faults():
    plan = FaultPlan(seed=3)
    plan.add(FaultSpec(at_ms=1_500.0, kind="link_down",
                       target=link_target("host1", "host2"),
                       duration_ms=600.0,
                       params={"drop_in_flight": True}))
    return FaultConfig(plan=plan, seed=3, transfer_chunk_bytes=256_000,
                       migration_deadline_ms=60_000.0,
                       max_transfer_retries=8)


def clean_faults():
    return FaultConfig(plan=FaultPlan(), seed=3,
                       transfer_chunk_bytes=64_000)


def run(faults, label):
    obs = Observability()
    obs.begin_run(label)
    experiment = MigrationExperiment(TestbedConfig(), faults=faults,
                                     observability=obs)
    outcome = experiment.run_once(int(5e6), policy=BindingPolicy.STATIC)
    return {
        "completed": outcome.completed,
        "phases": outcome.phases(),
        "events": outcome.events,
        "transfer_retries": outcome.transfer_retries,
        "transfer_resumed": outcome.transfer_resumed,
        "dedup_hits": outcome.dedup_hits,
        "total_ms": outcome.total_ms,
        "behaviour": behaviour_digest(obs),
    }


def main():
    golden = {
        "flap": run(flap_faults(), "golden/flap"),
        "clean": run(clean_faults(), "golden/clean"),
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
