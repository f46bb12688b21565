"""Same-seed determinism regressions.

Two runs of the same deployment with the same seed must be *byte
identical*: same metrics snapshots, same JSONL trace, same digests.  Any
divergence means hidden global state (a module-level counter, an id()
keyed cache, wall-clock leakage) crept back into the simulation.
"""

import importlib
import itertools
import os
import pathlib
import pkgutil
import subprocess
import sys

import repro
from repro import BindingPolicy, Deployment
from repro.apps import MusicPlayerApp
from repro.core.middleware import MiddlewareConfig
from repro.faults import FaultConfig
from repro.obs import Observability
from repro.simcheck import (
    AppSpec,
    HostSpec,
    Scenario,
    behaviour_digest,
    build_application,
    build_deployment,
    check_determinism,
    generate_scenario,
    trace_digest,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


def seeded_faults() -> FaultConfig:
    """Three seeded random faults with the reliability hardening on."""
    return FaultConfig(random_faults=3, seed=7, transfer_chunk_bytes=256_000,
                       migration_deadline_ms=60_000.0,
                       max_transfer_retries=8)


def run_quickstart(seed: int = 42, faults: bool = False):
    """The CLI quickstart scenario, instrumented; returns its artifacts."""
    obs = Observability()
    d = Deployment(seed=seed, observability=obs,
                   faults=seeded_faults() if faults else None)
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


def test_no_id_counter_at_module_or_class_scope():
    """Every id sequence belongs to the object that issues it.  A module-
    or class-level counter would carry one run's ids into the next run
    in the same process."""
    assert _global_counters() == {}


# -- two deployments interleaved in one process -------------------------------
#
# Each driver is a generator: it builds one deployment, runs it one event
# at a time (yielding between events) and returns what it did.
# Round-robin over two drivers interleaves their construction, their
# events and the ids they draw.


def _drain(deployment):
    """Run to quiescence one event at a time, yielding after each."""
    deployment.run(until=deployment.loop.now)  # arms faults, as run_all does
    while deployment.loop.step():
        yield


def _result(obs, deployment):
    """The behaviour digest, and the next conversation and registry
    request id the deployment would issue."""
    return (behaviour_digest(obs, deployment),
            next(deployment.platform.conversation_ids),
            next(deployment.network.registry_request_ids))


def fipa_quickstart():
    """The quickstart migration under FIPA negotiation, with seeded faults:
    it draws conversation ids and snapshot ids."""
    obs = Observability(trace=False)
    d = Deployment(seed=42, observability=obs,
                   config=MiddlewareConfig(migration_protocol="fipa"),
                   faults=seeded_faults())
    d.add_space("lab")
    src = d.add_host("host1", "lab")
    d.add_host("host2", "lab")
    yield
    src.launch_application(
        MusicPlayerApp.build("player", "alice", track_bytes=2_000_000))
    yield from _drain(d)
    d.loop.advance(10_000.0)
    outcome = src.migrate("player", "host2", policy=BindingPolicy.ADAPTIVE)
    yield from _drain(d)
    assert outcome.completed or outcome.failed
    assert d.stats()["faults_fired"] > 0
    return _result(obs, d)


FEDERATED = Scenario(
    seed=5,
    spaces=["lab", "annex", "hall"],
    gateways={"lab": "gw-lab", "annex": "gw-annex", "hall": "gw-hall"},
    space_links=[("lab", "annex"), ("annex", "hall")],
    hosts=[HostSpec("h1", "lab"), HostSpec("h2", "annex"),
           HostSpec("h3", "hall")],
    apps=[AppSpec("pad", "editor", "ann", 50_000, "h1"),
          AppSpec("tunes", "music", "bob", 400_000, "h3")],
    federated_registry=True,
    migration_protocol="fipa",
).validate()

#: (app, source, destination) in order; each leg starts once the last
#: has quiesced.
FEDERATED_LEGS = (("pad", "h1", "h2"), ("tunes", "h3", "h1"),
                  ("pad", "h2", "h3"))


def federated_scenario():
    """A three-space federated simcheck scenario under FIPA negotiation.
    While each app moves, every host asks where it runs: a global read
    that the aggregator fans out to every shard, drawing registry request
    ids on clients and nodes alike."""
    obs = Observability(trace=False)
    d = build_deployment(FEDERATED, observability=obs)
    yield
    for spec in FEDERATED.apps:
        d.middleware(spec.launch_host).launch_application(
            build_application(spec))
    yield from _drain(d)
    answers = []
    for app_name, source, destination in FEDERATED_LEGS:
        d.loop.advance(100.0)
        outcome = d.middleware(source).migrate(app_name, destination)
        for spec in FEDERATED.hosts:
            d.middleware(spec.name).registry_client.call(
                "application_hosts", {"app_name": app_name},
                lambda hosts, error: answers.append((hosts, error)))
        yield from _drain(d)
        assert outcome.completed
    assert len(answers) == 9 and all(error is None for _, error in answers)
    # h1 and h2 sit in different spaces: an answer naming both merged
    # two shards' records.
    assert ["h1", "h2"] in [hosts for hosts, _ in answers]
    return _result(obs, d)


def _interleave(*drivers):
    """Step the drivers round-robin until every one has returned."""
    results = {}
    while len(results) < len(drivers):
        for index, driver in enumerate(drivers):
            if index in results:
                continue
            try:
                next(driver)
            except StopIteration as stop:
                results[index] = stop.value
    return [results[index] for index in range(len(drivers))]


def _alone(name: str) -> subprocess.Popen:
    """Run one driver by itself in a fresh interpreter."""
    code = ("from tests.integration.test_determinism import _interleave, "
            f"{name}\nprint(_interleave({name}())[0])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    return subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)


def test_interleaved_deployments_match_fresh_processes():
    """Two deployments built and run interleaved in one process each do
    exactly what they do alone in a fresh interpreter."""
    solo = {name: _alone(name)
            for name in ("fipa_quickstart", "federated_scenario")}
    interleaved = _interleave(fipa_quickstart(), federated_scenario())
    for name, result in zip(solo, interleaved):
        out, _ = solo[name].communicate(timeout=120)
        assert solo[name].returncode == 0
        assert out.strip() == repr(result), name
