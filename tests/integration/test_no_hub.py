"""A deployment without an ``Observability`` hub behaves like one with it.

The benchmark and the fault corpus build their deployments with no hub,
so every ``obs is None`` branch of the network, the mobility pump and the
kernel runs there.  Each check drives one scenario twice, once with a hub
attached and once without, and compares what the simulation did: every
migration's terminal state, resume time and bytes, and the network's
byte ledger, drop count and event count.
"""

import random

import pytest

from repro.apps import MusicPlayerApp
from repro.core.application import AppStatus
from repro.core.binding import BindingPolicy
from repro.core.errors import MiddlewareError, MigrationError
from repro.core.middleware import Deployment
from repro.faults.engine import FaultConfig
from repro.net.topology import LinkSpec
from repro.obs import Observability
from repro.simcheck.scenario import (
    build_application,
    build_deployment,
    generate_scenario,
)


def _outcome(outcome):
    return (outcome.completed, outcome.failed, outcome.failure_reason,
            outcome.resume_done_at, outcome.bytes_transferred)


def _network(d):
    # At quiescence no link holds a landed bulk job.
    assert all(not link._flying for link in d.network.links)
    return (d.network.bytes_on_wire, d.network.messages_dropped,
            d.loop.processed)


def _running_host(d, app_name):
    for host, app in d.application_instances(app_name):
        if app.status is AppStatus.RUNNING:
            return host
    return None


def _drive_scenario(seed, observability):
    """One simcheck scenario, driven leg by leg as the fault corpus does."""
    scenario = generate_scenario(seed)
    d = build_deployment(scenario, observability=observability)
    for spec in scenario.apps:
        d.middleware(spec.launch_host).launch_application(
            build_application(spec))
    d.run_all()
    d.loop.advance(scenario.warmup_ms)
    legs = []
    for leg in scenario.legs:
        d.loop.advance(leg.pause_before_ms)
        source = _running_host(d, leg.app_name)
        if source is None or source == leg.destination:
            legs.append(None)
            continue
        policy = next(a.policy for a in scenario.apps
                      if a.name == leg.app_name)
        try:
            outcome = d.middleware(source).migrate(
                leg.app_name, leg.destination, policy=BindingPolicy(policy))
        except (MigrationError, MiddlewareError) as exc:
            legs.append(("refused", str(exc)))
            continue
        d.run_all()
        legs.append(_outcome(outcome))
    d.run_all()
    if scenario.plan.horizon_ms:
        d.loop.advance(scenario.plan.horizon_ms + 1_000.0)
        d.run_all()
    return legs, _network(d)


@pytest.mark.parametrize("seed", range(50))
def test_simcheck_scenario_runs_the_same_without_a_hub(seed):
    assert _drive_scenario(seed, None) == \
        _drive_scenario(seed, Observability())


def _drive_ring(observability):
    """A lossy four-space ring: 60 music-player legs, most of them across
    one backbone hop, submitted 40 ms apart to a scheduler that admits 8
    at once, so bulk flows contend on the backbone."""
    d = Deployment(
        seed=7,
        backbone=LinkSpec(bandwidth_mbps=10.0, latency_ms=20.0,
                          loss_rate=0.01),
        faults=FaultConfig(seed=7, transfer_chunk_bytes=16_384,
                           transfer_window=8, max_transfer_retries=8,
                           arm="manual"),
        observability=observability)
    lan = LinkSpec(bandwidth_mbps=100.0, latency_ms=1.0)
    spaces = 4
    for i in range(spaces):
        d.add_space(f"ring{i}", lan=lan)
        for j in range(3):
            d.add_host(f"r{i}-h{j}", f"ring{i}")
    for i in range(spaces):
        d.add_gateway(f"gw{i}", f"ring{i}")
    for i in range(spaces):
        d.connect_spaces(f"ring{i}", f"ring{(i + 1) % spaces}")
    d.enable_migration_scheduler(limit=8)
    rng = random.Random(3)
    legs = []
    for k in range(60):
        space, host = rng.randrange(spaces), rng.randrange(3)
        other = space if k % 4 == 3 else (space + rng.choice((1, -1))) % spaces
        peer = (host + 1) % 3 if other == space else rng.randrange(3)
        legs.append((f"r{space}-h{host}", f"r{other}-h{peer}"))
        d.middleware(legs[-1][0]).launch_application(MusicPlayerApp.build(
            f"track{k:03d}", f"user{k}", track_bytes=400_000))
    d.run_all()
    requests = []
    t0 = d.loop.now
    for k, (source, destination) in enumerate(legs):
        d.loop.call_at(t0 + k * 40.0, lambda k=k, s=source, t=destination:
                       requests.append(d.scheduler.submit(
                           s, f"track{k:03d}", t, deadline_ms=30_000.0)))
    d.run_all(max_events=5_000_000)
    outcomes = [(r.app_name, r.state,
                 _outcome(r.outcome) if r.outcome is not None else None)
                for r in requests]
    return outcomes, _network(d)


def test_lossy_contended_bulk_ring_runs_the_same_without_a_hub():
    hub = Observability()
    with_hub = _drive_ring(hub)
    assert with_hub == _drive_ring(None)
    outcomes, (_, dropped, _) = with_hub
    assert len(outcomes) == 60
    assert dropped > 0  # the backbone lost chunks
    # The contention gauges are written only while bulk flows share a wire.
    assert any(g.name == "net.link.queue_depth" for g in hub.metrics.gauges())
