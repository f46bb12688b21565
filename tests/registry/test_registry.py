"""Tests for the registry center, records and network RPC."""

import pytest

from repro.net.kernel import EventLoop
from repro.net.simnet import Network
from repro.registry.records import (
    ApplicationRecord,
    InterfaceDescription,
    Operation,
    RecordError,
    ResourceRecord,
)
from repro.registry.registry import (
    REGISTRY_PROCESSING_MS,
    REGISTRY_TIMEOUT_MS,
    RegistryCenter,
    RegistryClient,
    RegistryError,
    install_registry,
)


def music_record(host="h1", components=("logic", "interface", "data")):
    return ApplicationRecord(
        app_name="music-player",
        host=host,
        components=list(components),
        interface=InterfaceDescription(
            "music-player",
            [Operation("play", ["track"], ["status"]),
             Operation("stop", [], ["status"])],
            binding=f"acl://coordinator@{host}",
        ),
        device_requirements={"audio_output": True},
        user_preferences={"volume": 60},
    )


class TestRecords:
    def test_application_record_validation(self):
        with pytest.raises(RecordError):
            ApplicationRecord(app_name="", host="h1")
        with pytest.raises(RecordError):
            ApplicationRecord(app_name="x", host="")

    def test_resource_record_needs_classes(self):
        with pytest.raises(RecordError):
            ResourceRecord("imcl:hp", "h1", classes=[])

    def test_interface_roundtrip(self):
        iface = music_record().interface
        restored = InterfaceDescription.from_dict(iface.to_dict())
        assert restored.service_name == "music-player"
        assert restored.operation("play").inputs == ("track",)
        assert restored.operation("missing") is None

    def test_application_roundtrip(self):
        record = music_record()
        restored = ApplicationRecord.from_dict(record.to_dict())
        assert restored.app_name == record.app_name
        assert restored.components == record.components
        assert restored.interface.binding == record.interface.binding
        assert restored.user_preferences == {"volume": 60}

    def test_resource_roundtrip(self):
        record = ResourceRecord("imcl:hp", "h1", ["imcl:Printer"],
                                {"imcl:ppm": 30})
        restored = ResourceRecord.from_dict(record.to_dict())
        assert restored == record

    def test_has_component(self):
        record = music_record(components=("interface",))
        assert record.has_component("interface")
        assert not record.has_component("data")


class TestSharedRecordValues:
    """A center keeps one instance of each value its records repeat."""

    def test_equal_interfaces_share_one_operations_value(self):
        center = RegistryCenter()
        center.register_application(music_record("h1"))
        center.register_application(
            ApplicationRecord.from_dict(music_record("h2").to_dict()))
        first, second = center.lookup_application("music-player")
        assert first.interface is not second.interface  # bindings differ
        assert first.interface.operations is second.interface.operations
        assert first.interface.operations == (
            Operation("play", ("track",), ("status",)),
            Operation("stop", (), ("status",)))
        assert first.components is second.components

    def test_equal_maps_share_one_read_only_mapping(self):
        center = RegistryCenter()
        center.register_application(music_record("h1"))
        center.register_application(music_record("h2"))
        first, second = center.lookup_application("music-player")
        assert first.device_requirements is second.device_requirements
        assert first.user_preferences is second.user_preferences
        with pytest.raises(TypeError):
            first.device_requirements["audio_output"] = False
        assert second.device_requirements == {"audio_output": True}

    def test_records_stay_immutable_values(self):
        op = Operation("update", ["key", "value"])
        assert op.inputs == ("key", "value")
        with pytest.raises(AttributeError):
            op.name = "other"
        with pytest.raises(AttributeError):
            music_record().interface.binding = "acl://elsewhere"

    def test_to_dict_still_emits_lists_and_dicts(self):
        center = RegistryCenter()
        center.register_application(music_record("h1"))
        data = center.dispatch("lookup_application",
                               {"app_name": "music-player"})[0]
        assert type(data["components"]) is list
        assert type(data["device_requirements"]) is dict
        assert type(data["user_preferences"]) is dict
        operation = data["interface"]["operations"][0]
        assert type(data["interface"]["operations"]) is list
        assert operation == {"name": "play", "inputs": ["track"],
                             "outputs": ["status"]}
        assert type(operation["inputs"]) is list
        assert data == dict(music_record("h1").to_dict(), version=1)

    def test_true_one_and_one_point_zero_stay_distinct(self):
        center = RegistryCenter()
        values = [True, 1, 1.0, 0.0, -0.0, (1,), (True,)]
        for k, value in enumerate(values):
            center.register_application(ApplicationRecord(
                "app", f"h{k}", device_requirements={"x": value}))
        stored = [center.lookup_application("app", f"h{k}")[0]
                  .device_requirements["x"] for k in range(len(values))]
        assert [repr(v) for v in stored] == [repr(v) for v in values]
        assert [type(v) for v in stored] == [type(v) for v in values]

    def test_unhashable_value_keeps_a_private_read_only_copy(self):
        center = RegistryCenter()
        tracks = ["a", "b"]
        for host in ("h1", "h2"):
            center.register_application(ApplicationRecord(
                "app", host, user_preferences={"playlist": tracks}))
        first, second = center.lookup_application("app")
        assert first.user_preferences is not second.user_preferences
        assert first.user_preferences == {"playlist": ["a", "b"]}
        with pytest.raises(TypeError):
            first.user_preferences["playlist"] = []


class TestRegistryCenter:
    def test_register_and_lookup(self):
        center = RegistryCenter()
        center.register_application(music_record("h1"))
        center.register_application(music_record("h2", components=("interface",)))
        assert len(center.lookup_application("music-player")) == 2
        assert center.lookup_application("music-player", host="h2")[0] \
            .components == ("interface",)
        assert center.application_hosts("music-player") == ["h1", "h2"]

    def test_lookup_missing(self):
        assert RegistryCenter().lookup_application("nope") == []

    def test_reregistration_bumps_version(self):
        center = RegistryCenter()
        center.register_application(music_record("h1"))
        center.register_application(music_record("h1"))
        assert center.lookup_application("music-player", "h1")[0].version == 2

    def test_deregister_application(self):
        center = RegistryCenter()
        center.register_application(music_record("h1"))
        assert center.deregister_application("music-player", "h1")
        assert not center.deregister_application("music-player", "h1")
        assert center.lookup_application("music-player") == []

    def test_components_at(self):
        center = RegistryCenter()
        center.register_application(music_record("h2", components=("interface",)))
        assert center.components_at("music-player", "h2") == ["interface"]
        assert center.components_at("music-player", "h9") == []

    def test_register_resource_feeds_ontology(self):
        center = RegistryCenter()
        center.register_resource(ResourceRecord(
            "imcl:hp821", "h1", ["imcl:Printer"], {"imcl:ppm": 30}))
        assert center.resource("imcl:hp821").host == "h1"
        assert center.matcher.is_substitutable("imcl:hp821")
        assert not center.matcher.is_transferable("imcl:hp821")

    def test_resources_on(self):
        center = RegistryCenter()
        center.register_resource(ResourceRecord("imcl:b", "h1", ["imcl:Printer"]))
        center.register_resource(ResourceRecord("imcl:a", "h1", ["imcl:Display"]))
        center.register_resource(ResourceRecord("imcl:c", "h2", ["imcl:Printer"]))
        assert [r.resource_id for r in center.resources_on("h1")] == \
            ["imcl:a", "imcl:b"]

    def test_deregister_resource_removes_triples(self):
        center = RegistryCenter()
        center.register_resource(ResourceRecord("imcl:hp", "h1", ["imcl:Printer"]))
        assert center.deregister_resource("imcl:hp")
        assert not center.deregister_resource("imcl:hp")
        assert center.find_compatible("imcl:hp", "h1").matched is False

    def test_resource_reregistration_moves_host(self):
        center = RegistryCenter()
        center.register_resource(ResourceRecord("imcl:pda", "h1", ["imcl:PDA"]))
        center.register_resource(ResourceRecord("imcl:pda", "h2", ["imcl:PDA"]))
        assert center.resource("imcl:pda").host == "h2"
        assert center.resources_on("h1") == []

    def test_find_compatible_semantic(self):
        """Different printer models on different hosts still match."""
        center = RegistryCenter()
        center.ontology.declare_class("imcl:hpLaserJet", parents=["imcl:Printer"])
        center.ontology.declare_class("imcl:canonInkjet", parents=["imcl:Printer"])
        center.register_resource(ResourceRecord("imcl:src-hp", "h1",
                                                ["imcl:hpLaserJet"]))
        center.register_resource(ResourceRecord("imcl:dest-canon", "h2",
                                                ["imcl:canonInkjet"]))
        result = center.find_compatible("imcl:src-hp", "h2")
        assert result.matched
        assert result.candidate == "imcl:dest-canon"

    def test_find_compatible_respects_substitutability(self):
        center = RegistryCenter()
        center.register_resource(ResourceRecord("imcl:db1", "h1",
                                                ["imcl:Database"]))
        center.register_resource(ResourceRecord("imcl:db2", "h2",
                                                ["imcl:Database"]))
        result = center.find_compatible("imcl:db1", "h2")
        assert not result.matched  # databases are not substitutable

    def test_rebind_plan(self):
        center = RegistryCenter()
        center.register_resource(ResourceRecord("imcl:src-prn", "h1",
                                                ["imcl:Printer"]))
        center.register_resource(ResourceRecord("imcl:dst-prn", "h2",
                                                ["imcl:Printer"]))
        plan = center.rebind_plan(["imcl:src-prn"], "h2")
        assert plan["imcl:src-prn"].candidate == "imcl:dst-prn"

    def test_dispatch_unknown_operation(self):
        with pytest.raises(RegistryError):
            RegistryCenter().dispatch("explode", {})


class TestRegistryRPC:
    def make_rig(self):
        loop = EventLoop()
        net = Network(loop)
        net.create_host("registry-host")
        net.create_host("client-host")
        net.connect("registry-host", "client-host", latency_ms=3.0)
        server = install_registry(net, "registry-host")
        client = RegistryClient(net, "client-host", "registry-host")
        return loop, net, server, client

    def test_remote_register_and_lookup(self):
        loop, net, server, client = self.make_rig()
        results = []
        client.call("register_application",
                    {"record": music_record("client-host").to_dict()},
                    lambda result, error: results.append(("reg", error)))
        client.call("lookup_application", {"app_name": "music-player"},
                    lambda result, error: results.append(("lookup", result)))
        loop.run()
        assert results[0] == ("reg", None)
        kind, rows = results[1]
        assert kind == "lookup" and rows[0]["host"] == "client-host"

    def test_remote_call_pays_round_trip(self):
        loop, net, server, client = self.make_rig()
        finished = []
        client.call("application_hosts", {"app_name": "x"},
                    lambda result, error: finished.append(loop.now))
        loop.run()
        # 3ms out + processing + 3ms back, plus transmission time
        assert finished[0] >= 6.0 + REGISTRY_PROCESSING_MS

    def test_error_propagates(self):
        loop, net, server, client = self.make_rig()
        errors = []
        client.call("explode", {}, lambda result, error: errors.append(error))
        loop.run()
        assert errors and "unknown registry operation" in errors[0]

    def test_local_client_skips_network(self):
        loop, net, server, client = self.make_rig()
        local_client = RegistryClient(net, "registry-host", "registry-host")
        finished = []
        local_client.call("application_hosts", {"app_name": "x"},
                          lambda result, error: finished.append(loop.now))
        loop.run()
        assert finished == [0.0]

    def test_find_compatible_over_rpc(self):
        loop, net, server, client = self.make_rig()
        server.center.register_resource(ResourceRecord(
            "imcl:dst-prn", "client-host", ["imcl:Printer"]))
        server.center.register_resource(ResourceRecord(
            "imcl:src-prn", "registry-host", ["imcl:Printer"]))
        results = []
        client.call("find_compatible",
                    {"required_resource": "imcl:src-prn",
                     "host": "client-host"},
                    lambda result, error: results.append(result))
        loop.run()
        assert results[0]["matched"] is True
        assert results[0]["candidate"] == "imcl:dst-prn"

    def test_requests_served_counter(self):
        loop, net, server, client = self.make_rig()
        client.call("application_hosts", {"app_name": "x"},
                    lambda r, e: None)
        loop.run()
        assert server.requests_served == 1


class TestRegistryFaults:
    def make_rig(self):
        loop = EventLoop()
        net = Network(loop)
        net.create_host("registry-host")
        net.create_host("client-host")
        net.connect("registry-host", "client-host", latency_ms=3.0)
        server = install_registry(net, "registry-host")
        client = RegistryClient(net, "client-host", "registry-host")
        return loop, net, server, client

    def test_offline_server_fails_fast(self):
        loop, net, server, client = self.make_rig()
        net.host("registry-host").online = False
        errors = []
        client.call("application_hosts", {"app_name": "x"},
                    lambda result, error: errors.append(error))
        loop.run()
        assert errors and "unreachable" in errors[0]

    def test_server_crash_mid_flight_times_out(self):
        loop, net, server, client = self.make_rig()
        errors = []
        client.call("application_hosts", {"app_name": "x"},
                    lambda result, error: errors.append(error))
        net.host("registry-host").online = False  # dies before delivery
        loop.run()
        assert errors == ["registry request lost"]

    def test_lost_response_times_out(self):
        loop, net, server, client = self.make_rig()
        errors = []
        client.call("application_hosts", {"app_name": "x"},
                    lambda result, error: errors.append(error))
        # Kill the client's host the instant the request is in flight so
        # the response is dropped, then bring it back (the timeout fires
        # on the shared loop regardless).
        loop.advance(4.0)
        net.host("client-host").online = False
        loop.advance(20.0)
        net.host("client-host").online = True
        loop.run()
        assert errors == [f"registry call timed out after "
                          f"{REGISTRY_TIMEOUT_MS} ms"]
        assert loop.now >= REGISTRY_TIMEOUT_MS
        assert client.timeouts == 1

    def test_success_cancels_timeout(self):
        loop, net, server, client = self.make_rig()
        results = []
        client.call("application_hosts", {"app_name": "x"},
                    lambda result, error: results.append((result, error)))
        loop.run()
        assert results == [([], None)]
        assert client.timeouts == 0


class TestMigrationWithRegistryOutage:
    def test_migration_fails_cleanly_when_registry_dies(self):
        """Planning cannot complete; the app keeps running at the source."""
        from repro.apps.music_player import MusicPlayerApp
        from repro.core import Deployment
        from repro.core.application import AppStatus
        d = Deployment(seed=44)
        d.add_space("room")
        d.install_registry("room", host_name="reg")
        src = d.add_host("pc1", "room")
        dst = d.add_host("pc2", "room")
        app = MusicPlayerApp.build("player", "alice", track_bytes=100_000)
        src.launch_application(app)
        d.run_all()
        d.network.host("reg").online = False
        outcome = src.migrate("player", "pc2")
        d.run_all()
        assert outcome.failed
        assert "registry" in outcome.failure_reason
        assert app.status is AppStatus.RUNNING  # untouched
