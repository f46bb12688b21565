"""Tests for the snapshot manager and the adaptor."""

import pytest

from repro.apps.editor import EditorApp
from repro.apps.music_player import MusicPlayerApp
from repro.core.adaptor import Adaptor
from repro.core.application import Application
from repro.core.components import PresentationComponent
from repro.core.errors import AdaptationError, SnapshotError
from repro.core.profiles import DeviceProfile, UserProfile, handheld_profile
from repro.core.snapshot import Snapshot, SnapshotManager


class TestSnapshotManager:
    def test_capture_and_restore(self):
        manager = SnapshotManager()
        app = EditorApp.build("ed", "alice", initial_text="hello")
        app.coordinator.update("length", 5)
        snapshot = manager.capture(app, now=10.0)
        assert snapshot.app_name == "ed"
        assert snapshot.taken_at == 10.0
        fresh = EditorApp.build("ed", "alice")
        manager.restore(fresh, snapshot)
        assert fresh.buffer == "hello"
        assert fresh.coordinator.state["length"] == 5

    def test_restore_wrong_app_rejected(self):
        manager = SnapshotManager()
        app = EditorApp.build("ed", "alice")
        snapshot = manager.capture(app)
        other = EditorApp.build("different", "alice")
        with pytest.raises(SnapshotError):
            manager.restore(other, snapshot)

    def test_snapshot_size_tracks_state(self):
        manager = SnapshotManager()
        small = manager.capture(EditorApp.build("ed", "a", "x"))
        big = manager.capture(EditorApp.build("ed", "a", "x" * 10_000))
        assert big.size_bytes - small.size_bytes == 9_999

    def test_roundtrip_dict(self):
        manager = SnapshotManager()
        app = EditorApp.build("ed", "alice", "text")
        snapshot = manager.capture(app, now=3.0)
        restored = Snapshot.from_dict(snapshot.to_dict())
        assert restored.app_state == snapshot.app_state
        assert restored.size_bytes == snapshot.size_bytes

    def test_component_versions_recorded(self):
        manager = SnapshotManager()
        app = EditorApp.build("ed", "alice")
        app.component("editor-logic").touch()
        snapshot = manager.capture(app)
        assert snapshot.component_versions["editor-logic"] == 2


class TestAdaptor:
    def test_scales_down_to_small_screen(self):
        app = MusicPlayerApp.build("p", "alice")  # UI 800x600
        device = DeviceProfile("small", screen_width=400, screen_height=300)
        report = Adaptor().adapt(app, device)
        ui = app.component("player-ui")
        assert ui.attributes["width"] == 400
        assert ui.attributes["height"] == 300
        assert report.changed("player-ui", "width")

    def test_no_upscaling_on_big_screen(self):
        app = MusicPlayerApp.build("p", "alice")
        device = DeviceProfile("big", screen_width=3840, screen_height=2160)
        Adaptor().adapt(app, device)
        ui = app.component("player-ui")
        assert ui.attributes["width"] == 800  # unchanged

    def test_resolution_applied(self):
        app = MusicPlayerApp.build("p", "alice")
        device = DeviceProfile("hidpi", resolution_dpi=220)
        Adaptor().adapt(app, device)
        assert app.component("player-ui").attributes["resolution_dpi"] == 220

    def test_left_handed_layout(self):
        """The paper's motivating example: left-handed user."""
        app = MusicPlayerApp.build("p", "lefty",
                                   user_profile=UserProfile("lefty", "left"))
        Adaptor().adapt(app, DeviceProfile("h"))
        assert app.component("player-ui").attributes["layout"] == "mirrored"

    def test_right_handed_layout(self):
        app = MusicPlayerApp.build("p", "alice")
        Adaptor().adapt(app, DeviceProfile("h"))
        assert app.component("player-ui").attributes["layout"] == "standard"

    def test_user_preferences_applied(self):
        profile = UserProfile("alice", preferences={"theme": "dark"})
        app = MusicPlayerApp.build("p", "alice", user_profile=profile)
        Adaptor().adapt(app, DeviceProfile("h"))
        assert app.component("player-ui").attributes["pref.theme"] == "dark"

    def test_handheld_simplification(self):
        app = EditorApp.build("ed", "alice")
        app.device_requirements = {}
        Adaptor().adapt(app, handheld_profile("pda"))
        ui = app.component("editor-ui")
        assert ui.attributes["toolbar"] == "compact"
        assert ui.attributes["animations"] is False

    def test_unsatisfiable_requirements_raise(self):
        app = MusicPlayerApp.build("p", "alice")  # needs audio
        silent = DeviceProfile("silent", audio_output=False)
        with pytest.raises(AdaptationError):
            Adaptor().adapt(app, silent)

    def test_idempotent_adaptation_records_no_churn(self):
        app = MusicPlayerApp.build("p", "alice")
        device = DeviceProfile("h")
        Adaptor().adapt(app, device)
        report = Adaptor().adapt(app, device)
        assert report.changes == []

    def test_app_without_presentations(self):
        app = Application("headless", "alice")
        report = Adaptor().adapt(app, DeviceProfile("h"))
        assert report.changes == []
