"""A finished deployment is garbage, and so is a finished migration.

The registry's client and center lookup tables live on the ``Network``
they describe, so nothing at module or class scope keeps a dropped
``Deployment`` (or its network) alive.  Each test builds inside a helper
so the only references left behind are the weak ones it returns.

Inside a live deployment, a migration's pipeline context lives only
until the migration finishes; its outcome stays as the record.  A link
keeps every bulk flow it carried, but only a queueing flow holds a queue.
"""

import gc
import weakref

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment
from repro.core.application import AppStatus
from repro.core.mobile_agent import MDMobileAgent
from repro.core.pipeline import MigrationPipeline, plan_to_dict
from repro.registry.federation import FederatedRegistryClient
from repro.registry.registry import RegistryClient
from repro.simcheck.scenario import build_deployment, generate_scenario


def _migrate_once(registry: str):
    """Build a two-host deployment, move one app, return weak refs."""
    d = Deployment(seed=3)
    if registry == "federated":
        d.enable_federated_registry()
    d.add_space("room")
    d.install_registry("room", host_name="reg")
    src = d.add_host("pc1", "room")
    d.add_host("pc2", "room")
    expected = {"flat": RegistryClient,
                "federated": FederatedRegistryClient}[registry]
    assert type(src.registry_client) is expected
    src.launch_application(
        MusicPlayerApp.build("player", "alice", track_bytes=100_000))
    d.run_all()
    outcome = src.migrate("player", "pc2")
    d.run_all()
    assert outcome.completed
    return weakref.ref(d), weakref.ref(d.network)


@pytest.mark.parametrize("registry", ["flat", "federated"])
def test_dropped_deployment_is_collected(registry):
    deployment_ref, network_ref = _migrate_once(registry)
    gc.collect()
    assert deployment_ref() is None
    assert network_ref() is None


def test_scenario_loop_leaves_no_live_network():
    networks = []
    for seed in range(20):
        deployment = build_deployment(generate_scenario(seed))
        deployment.run_all()
        networks.append(weakref.ref(deployment.network))
    del deployment
    gc.collect()
    assert [ref() for ref in networks] == [None] * 20


# -- a finished migration leaves only its outcome -----------------------------


@pytest.fixture
def started_contexts(monkeypatch):
    """Weak references to every pipeline context started in the test."""
    refs = []
    start = MigrationPipeline.start

    def recording_start(pipeline, ctx):
        refs.append(weakref.ref(ctx))
        return start(pipeline, ctx)

    monkeypatch.setattr(MigrationPipeline, "start", recording_start)
    return refs


def _room(*apps):
    """Two hosts in one room; ``apps`` are ``(name, host)`` to launch."""
    d = Deployment(seed=5)
    d.add_space("room")
    hosts = {name: d.add_host(name, "room") for name in ("pc1", "pc2")}
    for app_name, host in apps:
        hosts[host].launch_application(
            MusicPlayerApp.build(app_name, "alice", track_bytes=400_000))
    d.run_all()
    return d, hosts


def _running_on(d, app_name):
    return [host for host, app in d.application_instances(app_name)
            if app.status is AppStatus.RUNNING]


class TestFinishedMigrationKeepsOnlyItsOutcome:
    def test_completed_migration_frees_its_context(self, started_contexts):
        d, hosts = _room(("player", "pc1"))
        outcome = hosts["pc1"].migrate("player", "pc2")
        d.run_all()
        gc.collect()
        assert outcome.completed
        assert [ref() for ref in started_contexts] == [None]
        record = d.outcomes[outcome.plan.token]
        assert record is outcome
        assert (record.plan.source, record.plan.destination) == ("pc1", "pc2")
        assert record.bytes_transferred > 0
        assert record.total_ms > 0 and record.events

    def test_rolled_back_migration_frees_its_context(self,
                                                      started_contexts):
        d, hosts = _room(("player", "pc1"))
        hosts["pc1"].pipeline_failpoints = frozenset({"checkin"})
        outcome = hosts["pc1"].migrate("player", "pc2")
        d.run_all()
        gc.collect()
        assert outcome.failed and "checkin" in outcome.failure_reason
        assert _running_on(d, "player") == ["pc1"]
        assert [ref() for ref in started_contexts] == [None]
        record = d.outcomes[outcome.plan.token]
        assert record is outcome
        assert any("rolled back" in event for event in record.events)

    def test_noop_prestage_frees_its_context(self, started_contexts):
        d, hosts = _room(("player", "pc1"))
        hosts["pc1"].prestage("player", "pc2")
        d.run_all()
        second = hosts["pc1"].prestage("player", "pc2")
        d.run_all()
        gc.collect()
        assert second.completed
        assert any("nothing to prestage" in e for e in second.events)
        assert len(started_contexts) == 2
        assert [ref() for ref in started_contexts] == [None, None]
        assert d.outcomes[second.plan.token] is second
        assert second.plan.prestage

    def test_drained_flows_hold_no_queue(self):
        # Opposite migrations share the room's links, so their bulk
        # flows contend and open fluid queues on the way.
        d, hosts = _room(("player", "pc1"), ("radio", "pc2"))
        outcomes = [hosts["pc1"].migrate("player", "pc2"),
                    hosts["pc2"].migrate("radio", "pc1")]
        d.run_all()
        assert all(o.completed for o in outcomes)
        flows = [flow for link in d.network.links
                 for flow in link._flows.values()]
        assert flows
        assert [flow for flow in flows if flow.jobs is not None] == []

    @pytest.mark.parametrize("token", [None, "ghost#1"],
                             ids=["finished", "unknown"])
    def test_late_agent_for_a_finished_migration_changes_nothing(
            self, monkeypatch, token):
        d, hosts = _room(("player", "pc1"))
        outcome = hosts["pc1"].migrate("player", "pc2")
        d.run_all()
        assert outcome.completed
        events = list(outcome.events)
        phases_run = []
        run_phase = MigrationPipeline._run_phase

        def counting_run_phase(pipeline, ctx, phase):
            phases_run.append(phase.name)
            return run_phase(pipeline, ctx, phase)

        monkeypatch.setattr(MigrationPipeline, "_run_phase",
                            counting_run_phase)
        plan = plan_to_dict(outcome.plan)
        if token is not None:
            plan["token"] = token  # a token no outcome has
        late = hosts["pc2"].container.create_agent(MDMobileAgent, "ma-late")
        late.load_cargo({}, {}, plan)
        hosts["pc2"]._on_mobile_agent_arrival(late)
        d.run_all()
        assert phases_run == []
        assert not hosts["pc2"].container.has_agent("ma-late")
        assert d.platform.where_is("ma-late") is None
        assert _running_on(d, "player") == ["pc2"]
        assert outcome.completed and not outcome.failed
        assert outcome.events == events
