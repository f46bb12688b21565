"""Property-based tests (hypothesis) on core invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.core.application import Application
from repro.core.binding import BindingPolicy, BindingResolver, MigrationKind
from repro.core.components import (
    ComponentKind,
    DataComponent,
    LogicComponent,
    PresentationComponent,
    ResourceBinding,
)
from repro.core.coordinator import Coordinator
from repro.core.pipeline import plan_from_dict, plan_to_dict
from repro.core.snapshot import Snapshot

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
sizes = st.integers(min_value=0, max_value=10_000_000)


@st.composite
def applications(draw):
    """A random application with a unique-named component mix."""
    app = Application("app", "user")
    used = set()

    def fresh(prefix):
        base = draw(names)
        name = f"{prefix}-{base}"
        while name in used:
            name = f"{prefix}-{draw(names)}"
        used.add(name)
        return name

    for _ in range(draw(st.integers(0, 2))):
        app.add_component(LogicComponent(fresh("lg"), draw(sizes)))
    for _ in range(draw(st.integers(0, 2))):
        app.add_component(PresentationComponent(fresh("ui"), draw(sizes)))
    for _ in range(draw(st.integers(0, 3))):
        app.add_component(DataComponent(fresh("dt"), draw(sizes)))
    for _ in range(draw(st.integers(0, 2))):
        name = fresh("rb")
        app.add_component(ResourceBinding(name, f"imcl:{name}",
                                          "imcl:Printer"))
    return app


dest_kind_sets = st.sets(
    st.sampled_from(["logic", "presentation", "data"]), max_size=3)
policies = st.sampled_from([BindingPolicy.ADAPTIVE, BindingPolicy.STATIC])
kinds = st.sampled_from([MigrationKind.FOLLOW_ME,
                         MigrationKind.CLONE_DISPATCH])


class TestBindingResolverProperties:
    @given(app=applications(), dest=dest_kind_sets, policy=policies,
           kind=kinds)
    @settings(max_examples=60)
    def test_plan_partitions_components(self, app, dest, policy, kind):
        """Every non-resource component lands in exactly one bucket."""
        resolver = BindingResolver()
        plan = resolver.plan(app, "h1", "h2", sorted(dest), kind=kind,
                             policy=policy)
        buckets = (set(plan.carry_components) | set(plan.reuse_components)
                   | set(plan.remote_data))
        expected = {c.name for c in app.components
                    if c.kind is not ComponentKind.RESOURCE}
        assert buckets == expected
        assert not set(plan.carry_components) & set(plan.reuse_components)
        assert not set(plan.carry_components) & set(plan.remote_data)
        assert not set(plan.reuse_components) & set(plan.remote_data)

    @given(app=applications(), dest=dest_kind_sets, policy=policies,
           kind=kinds)
    @settings(max_examples=60)
    def test_estimated_bytes_equals_carried_sizes(self, app, dest, policy,
                                                  kind):
        plan = BindingResolver().plan(app, "h1", "h2", sorted(dest),
                                      kind=kind, policy=policy)
        carried_size = sum(app.component(n).size_bytes
                           for n in plan.carry_components)
        assert plan.estimated_bytes == carried_size

    @given(app=applications(), dest=dest_kind_sets)
    @settings(max_examples=60)
    def test_static_never_reuses(self, app, dest):
        plan = BindingResolver().plan(app, "h1", "h2", sorted(dest),
                                      policy=BindingPolicy.STATIC)
        assert plan.reuse_components == []

    @given(app=applications(), dest=dest_kind_sets, policy=policies,
           kind=kinds)
    @settings(max_examples=60)
    def test_every_resource_binding_gets_a_rebind(self, app, dest, policy,
                                                  kind):
        plan = BindingResolver().plan(app, "h1", "h2", sorted(dest),
                                      kind=kind, policy=policy)
        assert {r.binding_name for r in plan.resource_rebinds} == \
            {c.name for c in app.resource_bindings}
        for rebind in plan.resource_rebinds:
            assert rebind.mode in ("local", "remote")
            assert rebind.target_resource is not None

    @given(app=applications(), dest=dest_kind_sets, policy=policies,
           kind=kinds)
    @settings(max_examples=60)
    def test_plan_wire_roundtrip(self, app, dest, policy, kind):
        plan = BindingResolver().plan(app, "h1", "h2", sorted(dest),
                                      kind=kind, policy=policy)
        plan.token = "t#1"
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.carry_components == plan.carry_components
        assert restored.reuse_components == plan.reuse_components
        assert restored.remote_data == plan.remote_data
        assert restored.remote_data_bytes == plan.remote_data_bytes
        assert restored.estimated_bytes == plan.estimated_bytes
        assert restored.kind is plan.kind
        assert restored.policy is plan.policy
        assert restored.token == plan.token
        assert len(restored.resource_rebinds) == len(plan.resource_rebinds)

    @given(app=applications(), kind=kinds)
    @settings(max_examples=60)
    def test_adaptive_full_destination_carries_nothing(self, app, kind):
        """If the destination has every kind, nothing (transferable)
        travels."""
        plan = BindingResolver().plan(
            app, "h1", "h2", ["logic", "presentation", "data"],
            kind=kind, policy=BindingPolicy.ADAPTIVE)
        assert plan.carry_components == []
        assert plan.estimated_bytes == 0


plain_state = st.dictionaries(
    names,
    st.one_of(st.integers(-1000, 1000), st.booleans(),
              st.text(max_size=20), st.floats(-1e6, 1e6)),
    max_size=6)


class TestSnapshotProperties:
    @given(coordinator_state=plain_state, app_state=plain_state)
    @settings(max_examples=60)
    def test_snapshot_dict_roundtrip(self, coordinator_state, app_state):
        snapshot = Snapshot("app", 1, 2.0, coordinator_state, app_state,
                            {"c": 1})
        restored = Snapshot.from_dict(snapshot.to_dict())
        assert restored.coordinator_state == coordinator_state
        assert restored.app_state == app_state
        assert restored.size_bytes == snapshot.size_bytes


update_sequences = st.lists(
    st.tuples(st.sampled_from(["master", "r1", "r2"]), names,
              st.integers(0, 100)),
    min_size=1, max_size=20)


class TestCoordinatorConvergence:
    @given(updates=update_sequences)
    @settings(max_examples=60)
    def test_synchronous_sync_converges(self, updates):
        """With instantaneous delivery, master and replicas end up with
        identical state no matter who issued which update."""
        master = Coordinator("show", host="master")
        replicas = {"r1": Coordinator("show", host="r1"),
                    "r2": Coordinator("show", host="r2")}
        everyone = {"master": master, **replicas}

        def send(peer, app, key, value, origin):
            everyone[peer].apply_remote_update(key, value, origin)

        master.attach_sync_transport(send)
        master.become_master()
        for name, replica in replicas.items():
            replica.attach_sync_transport(send)
            replica.become_replica("master")
            master.add_replica(name)
        for issuer, key, value in updates:
            everyone[issuer].update(key, value)
        assert master.state == replicas["r1"].state == replicas["r2"].state
