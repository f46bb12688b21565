"""End-to-end instrumentation tests over real deployments.

The acceptance bar: Chrome-trace phase spans must agree with the printed
Fig. 8/9 phase timings to within 0.1 ms, and a disabled hub must record
zero events while leaving the benchmark results bit-identical.
"""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.bench.harness import (
    MigrationExperiment,
    TestbedConfig,
    build_paper_testbed,
    clone_dispatch_experiment,
)
from repro.core import BindingPolicy, Deployment
from repro.obs import Observability


def _migrate_once(observability=None, size=2_000_000):
    d, source, destination = build_paper_testbed(
        TestbedConfig(), observability=observability)
    app = MusicPlayerApp.build("player", "alice", track_bytes=size)
    source.launch_application(app)
    d.run_all()
    d.loop.advance(1_000.0)
    outcome = source.migrate("player", "host2")
    d.run_all()
    assert outcome.completed
    return d, outcome


def test_phase_spans_agree_with_outcome_within_tolerance():
    obs = Observability()
    _, outcome = _migrate_once(obs)
    root = obs.tracer.spans_named("app.migration")[0]
    phases = {name: obs.tracer.spans_named(name, category="migration")[0]
              for name in ("suspend", "migrate", "resume")}
    for name, span in phases.items():
        assert span.parent_id == root.span_id
        assert span.duration_ms == pytest.approx(
            outcome.phases()[name], abs=0.1)
    assert root.duration_ms == pytest.approx(outcome.total_ms, abs=0.1)
    # Phases tile the root span: contiguous, no gaps.
    assert phases["suspend"].start_ms == root.start_ms
    assert phases["suspend"].end_ms == phases["migrate"].start_ms
    assert phases["migrate"].end_ms == phases["resume"].start_ms
    assert phases["resume"].end_ms == root.end_ms


def test_agent_migration_spans_nest_and_cross_hosts():
    obs = Observability()
    _, outcome = _migrate_once(obs)
    move = obs.tracer.spans_named("agent.move")[0]
    children = {s.name: s for s in obs.tracer.spans
                if s.parent_id == move.span_id}
    assert set(children) >= {"agent.checkout", "agent.transfer",
                             "agent.checkin"}
    assert children["agent.checkout"].host == "host1"
    assert children["agent.checkin"].host == "host2"
    # The destination's skewed clock shows in the local stamps.
    checkin = children["agent.checkin"]
    assert checkin.local_start_ms is not None
    assert checkin.local_start_ms != pytest.approx(checkin.start_ms)


def test_network_and_kernel_metrics_recorded():
    obs = Observability()
    _migrate_once(obs)
    metrics = obs.metrics
    assert metrics.counter("kernel.events").value > 0
    assert metrics.gauge("kernel.queue_depth").updates > 0
    transfers = obs.tracer.spans_named("net.transfer", category="net")
    assert transfers
    total_span_bytes = sum(s.attributes["bytes"] for s in transfers)
    link_bytes = sum(c.value for c in metrics.counters()
                     if c.name == "net.link.bytes")
    assert total_span_bytes == link_bytes > 0
    # Every transfer span was sealed at its (possibly future) arrival.
    assert all(s.finished and s.duration_ms >= 0 for s in transfers)


def test_attached_hub_changes_nothing():
    _, outcome_on = _migrate_once(Observability())
    _, outcome_bare = _migrate_once(None)
    # Observation must not perturb the simulation: identical timings.
    assert outcome_on.phases() == outcome_bare.phases()
    assert outcome_on.bytes_transferred == outcome_bare.bytes_transferred


def test_sweep_partitions_runs():
    obs = Observability()
    experiment = MigrationExperiment(observability=obs)
    experiment.sweep([2.0, 4.0], BindingPolicy.ADAPTIVE)
    roots = obs.tracer.spans_named("app.migration")
    assert len(roots) == 2
    assert roots[0].run_id != roots[1].run_id
    labels = [obs.tracer.run_labels[s.run_id] for s in roots]
    assert labels == ["2MB/adaptive/follow-me#0", "4MB/adaptive/follow-me#0"]
    assert len(experiment.last_outcomes) == 2


def test_clone_dispatch_spans():
    obs = Observability()
    clone_dispatch_experiment(room_count=2, observability=obs)
    roots = obs.tracer.spans_named("app.migration")
    assert len(roots) == 2
    assert all(s.attributes["kind"] == "clone-dispatch" for s in roots)
    assert all(s.finished for s in roots)
    assert obs.metrics.counter("migration.completed",
                               kind="clone-dispatch").value == 2


def test_agent_clone_and_acl_events_at_platform_level():
    from repro.agents.acl import ACLMessage, Performative
    from repro.agents.agent import Agent
    from repro.net.kernel import EventLoop
    from repro.net.simnet import Network

    loop = EventLoop()
    obs = Observability().attach(loop)
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=10.0, latency_ms=1.0)
    from repro.agents.platform import AgentPlatform
    platform = AgentPlatform(net)
    c1 = platform.create_container("h1")
    platform.create_container("h2")

    from repro.agents.serialization import register_agent_type

    @register_agent_type
    class Quiet(Agent):
        def setup(self):
            pass

    a = c1.create_agent(Quiet, "worker")
    b = c1.create_agent(Quiet, "peer")
    loop.run_until_idle()
    platform.send_message(ACLMessage(
        performative=Performative.INFORM, sender=a.aid,
        receivers=[b.aid], content="hello"))
    loop.run_until_idle()
    sends = obs.tracer.events_named("acl.send")
    receives = obs.tracer.events_named("acl.receive")
    assert sends and receives
    assert all(e.attributes["performative"] for e in sends)
    total = sum(c.value for c in obs.metrics.counters()
                if c.name == "acl.messages")
    assert total == len(sends)

    result = platform.mobility.clone(a, "h2", "worker-2")
    loop.run_until_idle()
    assert result.completed
    clone_span = obs.tracer.spans_named("agent.clone")[0]
    children = [s.name for s in obs.tracer.spans
                if s.parent_id == clone_span.span_id]
    assert children == ["agent.checkout", "agent.transfer", "agent.checkin"]
    assert obs.metrics.counter("agent.completed", kind="clone").value == 1


def test_context_events_land_in_the_hub_tracer():
    obs = Observability()
    d = Deployment(seed=3, observability=obs)
    d.add_space("room")
    src = d.add_host("pc1", "room")
    d.add_host("pc2", "room")
    src.launch_application(
        MusicPlayerApp.build("player", "alice", track_bytes=100_000))
    d.run_all()
    d.announce_location("alice", "room")
    outcome = src.migrate("player", "pc2")
    d.run_all()
    context = [e for e in obs.tracer.events if e.category == "context"]
    assert len(context) == d.bus.published
    assert [(e.name, e.attributes["subject"]) for e in context] == [
        ("context.app", "player"), ("context.location", "alice"),
        ("context.app", "player")]
    resumed = context[-1]
    assert resumed.attributes == {"subject": "player", "event": "resumed",
                                  "host": "pc2", "owner": "alice"}
    assert resumed.timestamp_ms == outcome.resume_done_at
