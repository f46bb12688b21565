"""Edge-case tests for the middleware facade and deployment builder."""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.context.model import TOPIC_RAW_NETWORK
from repro.core import Deployment, DeviceProfile
from repro.core.application import Application, AppStatus
from repro.core.errors import AdaptationError, MiddlewareError
from repro.core.middleware import PROBE_DEFAULT_RTT_MS


def simple_deployment():
    d = Deployment(seed=6)
    d.add_space("room")
    return d, d.add_host("pc1", "room"), d.add_host("pc2", "room")


class TestInstallUninstall:
    def test_uninstall_stops_and_deregisters(self):
        d, pc1, pc2 = simple_deployment()
        app = MusicPlayerApp.build("player", "alice", track_bytes=1000)
        pc1.launch_application(app)
        d.run_all()
        pc1.uninstall_application("player")
        d.run_all()
        assert "player" not in pc1.applications
        assert app.status is AppStatus.INSTALLED
        assert d.registry_server.center.lookup_application("player") == []

    def test_uninstall_unknown_is_noop(self):
        d, pc1, pc2 = simple_deployment()
        pc1.uninstall_application("ghost")  # no exception

    def test_unknown_application_raises(self):
        d, pc1, pc2 = simple_deployment()
        with pytest.raises(MiddlewareError):
            pc1.application("ghost")

    def test_launch_rejects_incompatible_device(self):
        d = Deployment(seed=6)
        d.add_space("room")
        silent = d.add_host("silent-pc", "room",
                            profile=DeviceProfile("silent-pc",
                                                  audio_output=False))
        app = MusicPlayerApp.build("player", "alice", track_bytes=1000)
        with pytest.raises(AdaptationError):
            silent.launch_application(app)

    def test_register_resource_reaches_registry(self):
        d, pc1, pc2 = simple_deployment()
        pc2.register_resource("imcl:prn-2", ["imcl:Printer"],
                              {"imcl:ppm": 20})
        d.run_all()
        record = d.registry_server.center.resource("imcl:prn-2")
        assert record is not None and record.host == "pc2"


class TestDeploymentBuilder:
    def test_first_host_becomes_registry(self):
        d, pc1, pc2 = simple_deployment()
        assert d.registry_host == "pc1"

    def test_dedicated_registry_host(self):
        d = Deployment(seed=6)
        d.add_space("room")
        d.install_registry("room", host_name="reg-server")
        pc = d.add_host("pc1", "room")
        assert d.registry_host == "reg-server"
        assert "reg-server" not in d.middlewares

    def test_install_registry_twice_rejected(self):
        d = Deployment(seed=6)
        d.add_space("room")
        d.install_registry("room")
        with pytest.raises(MiddlewareError):
            d.install_registry("room", host_name="another")

    def test_unknown_middleware_raises(self):
        d, pc1, pc2 = simple_deployment()
        with pytest.raises(MiddlewareError):
            d.middleware("ghost")

    def test_add_beacon_requires_sensing(self):
        d, pc1, pc2 = simple_deployment()
        with pytest.raises(MiddlewareError):
            d.add_beacon("room")

    def test_enable_sensing_idempotent(self):
        d, pc1, pc2 = simple_deployment()
        first = d.enable_location_sensing()
        assert d.enable_location_sensing() is first

    def test_find_host_in_space_filters(self):
        d = Deployment(seed=6)
        d.add_space("room")
        d.add_host("silent", "room",
                   profile=DeviceProfile("silent", audio_output=False))
        d.add_host("loud", "room")
        assert d.find_host_in_space("room", {"audio_output": True}) == "loud"
        assert d.find_host_in_space("room", {"audio_output": True},
                                    exclude="loud") is None
        assert d.find_host_in_space("nowhere", {}) is None


class TestResponseTimeCache:
    def test_default_without_probes(self):
        d, pc1, pc2 = simple_deployment()
        assert pc1.measured_response_time("pc2") == PROBE_DEFAULT_RTT_MS

    def test_probe_updates_cache_and_publishes_context(self):
        from repro.context.sensors import NetworkSensor
        d, pc1, pc2 = simple_deployment()
        fused = []
        d.bus.subscribe("context.network", fused.append)
        sensor = NetworkSensor(d.loop, d.bus, d.network, "pc1", ["pc2"],
                               probe_period_ms=500.0)
        sensor.start()
        d.run(until=400.0)
        sensor.stop()
        d.run_all()
        assert pc1.measured_response_time("pc2") > 0
        assert pc1.measured_response_time("pc2") != PROBE_DEFAULT_RTT_MS
        assert fused and fused[0].subject == "pc1->pc2"


class TestAppEvents:
    def test_lifecycle_events_published(self):
        d, pc1, pc2 = simple_deployment()
        events = []
        d.bus.subscribe("context.app",
                        lambda e: events.append((e.get("event"),
                                                 e.get("host"))))
        app = MusicPlayerApp.build("player", "alice", track_bytes=1000)
        pc1.launch_application(app)
        d.run_all()
        pc1.migrate("player", "pc2")
        d.run_all()
        assert ("started", "pc1") in events
        assert ("resumed", "pc2") in events


class TestSyncEdges:
    def test_sync_update_for_unknown_app_ignored(self):
        d, pc1, pc2 = simple_deployment()
        d.network.send("pc1", "pc2", "md.sync",
                       ("update", "ghost", "k", 1, "pc1"), 64)
        d.run_all()  # must not raise

    def test_control_for_unknown_app_ignored(self):
        d, pc1, pc2 = simple_deployment()
        d.network.send("pc1", "pc2", "md.sync",
                       ("control", "add_replica", "ghost", "pc1"), 64)
        d.run_all()

    def test_fetch_zero_bytes_fires_immediately(self):
        d, pc1, pc2 = simple_deployment()
        fired = []
        pc1.fetch_remote_data("pc2", "app", 0, lambda: fired.append(True))
        d.run_all()
        assert fired == [True]

    def test_fetch_pays_transfer_time(self):
        d, pc1, pc2 = simple_deployment()
        times = []
        pc1.fetch_remote_data("pc2", "app", 1_000_000,
                              lambda: times.append(d.loop.now))
        d.run_all()
        assert times and times[0] >= 800.0  # 1 MB over 10 Mbps
