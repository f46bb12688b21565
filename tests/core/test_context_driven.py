"""The full Fig. 2/Fig. 4 loop: context events drive autonomous migration."""

import pytest

from repro.agents.acl import ACLMessage, Performative
from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, UserProfile
from repro.core.application import AppStatus
from repro.core.autonomous_agent import MIGRATION_PROTOCOL


def smart_building(response_rtt_default=10.0):
    d = Deployment(seed=3)
    d.add_space("office")
    d.add_space("lab")
    office_pc = d.add_host("office-pc", "office")
    lab_pc = d.add_host("lab-pc", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    return d, office_pc, lab_pc


def launch(d, middleware, follow=True, owner="alice"):
    profile = UserProfile(owner, preferences={"follow_user": follow})
    app = MusicPlayerApp.build("player", owner, track_bytes=2_000_000,
                               user_profile=profile)
    middleware.launch_application(app)
    d.run_all()
    return app


class TestAutonomousMigration:
    def test_location_change_triggers_follow_me(self):
        d, office_pc, lab_pc = smart_building()
        app = launch(d, office_pc)
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert app.status is AppStatus.INSTALLED  # left the office
        moved = lab_pc.application("player")
        assert moved.status is AppStatus.RUNNING
        assert office_pc.aa.migrations_requested == 1

    def test_same_space_move_is_ignored(self):
        d, office_pc, lab_pc = smart_building()
        launch(d, office_pc)
        d.announce_location("alice", "office", previous="hallway")
        d.run_all()
        assert office_pc.application("player").status is AppStatus.RUNNING
        assert office_pc.aa.migrations_requested == 0

    def test_other_users_movement_ignored(self):
        d, office_pc, lab_pc = smart_building()
        launch(d, office_pc, owner="alice")
        d.announce_location("bob", "lab", previous="office")
        d.run_all()
        assert office_pc.application("player").status is AppStatus.RUNNING

    def test_follow_user_preference_respected(self):
        d, office_pc, lab_pc = smart_building()
        launch(d, office_pc, follow=False)
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert office_pc.application("player").status is AppStatus.RUNNING
        assert office_pc.aa.migrations_requested == 0

    def test_slow_network_blocks_migration(self):
        """Rule 3: response time above threshold vetoes the move."""
        d, office_pc, lab_pc = smart_building()
        launch(d, office_pc)
        office_pc._response_times["lab-pc"] = 5_000.0
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert office_pc.application("player").status is AppStatus.RUNNING
        decisions = office_pc.aa.decisions
        assert decisions and not decisions[-1].move

    def test_incompatible_destination_blocks_migration(self):
        d = Deployment(seed=3)
        d.add_space("office")
        d.add_space("lab")
        office_pc = d.add_host("office-pc", "office")
        from repro.core.profiles import DeviceProfile
        d.add_host("lab-pc", "lab",
                   profile=DeviceProfile("lab-pc", audio_output=False))
        d.add_gateway("gw-office", "office")
        d.add_gateway("gw-lab", "lab")
        d.connect_spaces("office", "lab")
        launch(d, office_pc)
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        # No host in the lab satisfies audio_output -> no candidate found.
        assert office_pc.application("player").status is AppStatus.RUNNING
        assert office_pc.aa.migrations_requested == 0

    def test_decision_is_recorded_and_explainable(self):
        d, office_pc, lab_pc = smart_building()
        launch(d, office_pc)
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        decision = office_pc.aa.decisions[-1]
        assert decision.move
        assert decision.derivation is not None
        assert decision.derivation.rule_name == "Move"

    def test_mam_counts_requests(self):
        d, office_pc, lab_pc = smart_building()
        launch(d, office_pc)
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert office_pc.mam.requests_handled == 1


class TestMigrationReplies:
    """The MA manager answers every migration REQUEST with AGREE, REFUSE
    or FAILURE; the autonomous agent takes each answer off its queue."""

    def test_a_building_day_leaves_no_reply_queued(self):
        from tests.integration.building import run_building_day

        d = run_building_day()
        requested = 0
        for middleware in d.middlewares.values():
            aa = middleware.aa
            assert aa.queue_size == 0
            assert sum(aa.migration_replies.values()) \
                == aa.migrations_requested
            requested += aa.migrations_requested
        assert requested == 89

    def test_a_refusal_is_counted(self):
        d, office_pc, _ = smart_building()
        d.run_all()
        office_pc.aa.send(ACLMessage(
            Performative.REQUEST, receivers=[office_pc.ma_manager_aid],
            content={"action": "dance"}, protocol=MIGRATION_PROTOCOL))
        d.run_all()
        assert office_pc.aa.queue_size == 0
        assert office_pc.aa.migration_replies == {Performative.REFUSE: 1}


class TestSensorDrivenEndToEnd:
    def test_cricket_pipeline_moves_the_app(self):
        """Raw sensors -> fusion -> AA -> MA -> resumed app, no manual
        announce."""
        d, office_pc, lab_pc = smart_building()
        app = launch(d, office_pc)
        d.enable_location_sensing(sample_period_ms=200.0, noise_sigma_m=0.1)
        d.add_beacon("office", 2.0, 2.0)
        d.add_beacon("lab", 2.0, 2.0)
        d.add_user("alice", "badge-1", "office", 1.0, 1.0)
        d.run(until=2_000.0)
        assert office_pc.application("player").status is AppStatus.RUNNING
        # Alice walks to the lab.
        d.move_user("badge-1", "lab", 1.0, 1.0)
        d.run(until=10_000.0)
        d.sensors.stop()
        d.run_all()
        moved = lab_pc.application("player")
        assert moved.status is AppStatus.RUNNING
        assert app.status is AppStatus.INSTALLED

    def test_predictor_learns_route(self):
        d, office_pc, lab_pc = smart_building()
        launch(d, office_pc)
        d.announce_location("alice", "office")
        d.announce_location("alice", "lab", previous="office")
        d.announce_location("alice", "office", previous="lab")
        d.run_all()
        assert d.predictor.predict("alice") == "lab"
