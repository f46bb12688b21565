"""Same-seed determinism regressions.

Two runs of the same deployment with the same seed must be *byte
identical*: same metrics snapshots, same JSONL trace, same digests.  Any
divergence means hidden global state (a module-level counter, an id()
keyed cache, wall-clock leakage) crept back into the simulation.
"""

import importlib
import itertools
import pkgutil

import repro
from repro import BindingPolicy, Deployment
from repro.apps import MusicPlayerApp
from repro.faults import FaultConfig
from repro.obs import Observability
from repro.simcheck import (
    check_determinism,
    generate_scenario,
    reset_global_state,
    trace_digest,
)


def run_quickstart(seed: int = 42, faults: bool = False):
    """The CLI quickstart scenario, instrumented; returns its artifacts."""
    reset_global_state()
    obs = Observability()
    fault_config = None
    if faults:
        fault_config = FaultConfig(random_faults=3, seed=7,
                                   transfer_chunk_bytes=256_000,
                                   migration_deadline_ms=60_000.0,
                                   max_transfer_retries=8)
    d = Deployment(seed=seed, observability=obs, faults=fault_config)
    d.add_space("lab")
    src = d.add_host("host1", "lab")
    d.add_host("host2", "lab")
    app = MusicPlayerApp.build("player", "alice", track_bytes=2_000_000)
    src.launch_application(app)
    d.run_all()
    d.loop.advance(10_000.0)
    outcome = src.migrate("player", "host2",
                          policy=BindingPolicy.ADAPTIVE)
    d.run_all()
    return outcome, obs.metrics.snapshot(), trace_digest(obs), d.stats()


class TestQuickstartDeterminism:
    def test_same_seed_twice_is_byte_identical(self):
        outcome1, metrics1, digest1, stats1 = run_quickstart(seed=42)
        outcome2, metrics2, digest2, stats2 = run_quickstart(seed=42)
        assert outcome1.completed and outcome2.completed
        assert metrics1 == metrics2
        assert digest1 == digest2
        assert stats1 == stats2

    def test_same_seed_under_seeded_faults_is_byte_identical(self):
        outcome1, metrics1, digest1, stats1 = run_quickstart(seed=42,
                                                             faults=True)
        outcome2, metrics2, digest2, stats2 = run_quickstart(seed=42,
                                                             faults=True)
        assert metrics1 == metrics2
        assert digest1 == digest2
        assert stats1 == stats2
        assert stats1["faults_fired"] > 0

    def test_fault_runs_diverge_from_clean_runs(self):
        # Sanity: the digest is sensitive enough to notice the fault run.
        _, _, clean_digest, _ = run_quickstart(seed=42)
        _, _, fault_digest, _ = run_quickstart(seed=42, faults=True)
        assert clean_digest != fault_digest


class TestSimcheckScenarioDeterminism:
    def test_generated_scenarios_are_seed_stable(self):
        assert (generate_scenario(11).to_json()
                == generate_scenario(11).to_json())
        assert (generate_scenario(11).to_json()
                != generate_scenario(12).to_json())

    def test_fuzzed_scenario_double_run_digest(self):
        verdict = check_determinism(generate_scenario(3))
        assert verdict["deterministic"], verdict["digests"]


def _global_counters():
    """Every module- or class-level ``itertools.count`` under ``repro``."""
    found = {}
    names = ["repro"] + [info.name for info in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in names:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if isinstance(value, itertools.count):
                found[(name, attr)] = value
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    if isinstance(cvalue, itertools.count):
                        found[(name, attr, cattr)] = cvalue
    return found


def test_reset_global_state_reseeds_every_global_counter():
    """A global id counter that reset_global_state misses carries one
    run's ids into the next run in the same process."""
    before = _global_counters()
    assert ("repro.core.snapshot", "SnapshotManager", "_ids") in before
    reset_global_state()
    after = _global_counters()
    missed = sorted(key for key, counter in before.items()
                    if after[key] is counter)
    assert missed == []
