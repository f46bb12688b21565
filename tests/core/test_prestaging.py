"""Tests for predictor-driven component pre-staging."""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, UserProfile
from repro.core.application import AppStatus


def commuting_deployment():
    d = Deployment(seed=21)
    d.add_space("office")
    d.add_space("lab")
    office_pc = d.add_host("office-pc", "office")
    lab_pc = d.add_host("lab-pc", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    return d, office_pc, lab_pc


def launch(d, middleware):
    app = MusicPlayerApp.build(
        "player", "alice", track_bytes=2_000_000,
        user_profile=UserProfile("alice",
                                 preferences={"follow_user": True}))
    middleware.launch_application(app)
    d.run_all()
    return app


def teach_routine(d, repetitions=3):
    """Teach the predictor alice's office -> lab commute (run *before*
    launching apps so the follow-me AA does not chase her around)."""
    for _ in range(repetitions):
        d.announce_location("alice", "office")
        d.run_all()
        d.announce_location("alice", "lab", previous="office")
        d.run_all()


class TestManualPrestage:
    def test_prestage_installs_components_without_moving_execution(self):
        d, office_pc, lab_pc = commuting_deployment()
        app = launch(d, office_pc)
        outcome = office_pc.prestage("player", "lab-pc")
        d.run_all()
        assert outcome.completed
        assert app.status is AppStatus.RUNNING
        assert app.host == "office-pc"          # execution did not move
        staged = lab_pc.application("player")
        assert staged.status is AppStatus.INSTALLED
        assert staged.has_component("codec")
        assert staged.has_component("player-ui")

    def test_prestage_registers_destination_components(self):
        d, office_pc, lab_pc = commuting_deployment()
        launch(d, office_pc)
        office_pc.prestage("player", "lab-pc")
        d.run_all()
        components = d.registry_server.center.components_at("player",
                                                            "lab-pc")
        assert "logic" in components and "presentation" in components

    def test_migration_after_prestage_wraps_state_only(self):
        d, office_pc, lab_pc = commuting_deployment()
        launch(d, office_pc)
        office_pc.prestage("player", "lab-pc")
        d.run_all()
        outcome = office_pc.migrate("player", "lab-pc")
        d.run_all()
        assert outcome.completed
        assert outcome.plan.carry_components == []
        assert sorted(outcome.plan.reuse_components) == \
            ["codec", "player-ui"]
        assert lab_pc.application("player").status is AppStatus.RUNNING

    def test_prestage_speeds_up_later_migration(self):
        def migrate(with_prestage):
            d, office_pc, lab_pc = commuting_deployment()
            launch(d, office_pc)
            if with_prestage:
                office_pc.prestage("player", "lab-pc")
                d.run_all()
            outcome = office_pc.migrate("player", "lab-pc")
            d.run_all()
            assert outcome.completed
            return outcome.total_ms

        cold = migrate(with_prestage=False)
        warm = migrate(with_prestage=True)
        assert warm < cold

    def test_prestage_to_fully_equipped_host_is_a_noop(self):
        d, office_pc, lab_pc = commuting_deployment()
        launch(d, office_pc)
        office_pc.prestage("player", "lab-pc")
        d.run_all()
        second = office_pc.prestage("player", "lab-pc")
        d.run_all()
        assert second.completed
        assert any("nothing to prestage" in e for e in second.events)

    def test_prestage_validation(self):
        d, office_pc, lab_pc = commuting_deployment()
        launch(d, office_pc)
        from repro.core.errors import MigrationError
        with pytest.raises(MigrationError):
            office_pc.prestage("player", "office-pc")
        with pytest.raises(MigrationError):
            office_pc.prestage("player", "ghost-host")


class TestPrestagingService:
    def test_routine_triggers_prestage(self):
        d, office_pc, lab_pc = commuting_deployment()
        teach_routine(d)
        launch(d, office_pc)
        service = d.enable_prestaging(probability_threshold=0.6)
        # Alice arrives at her office; the predictor says lab is next ->
        # components are pushed there ahead of her.
        d.announce_location("alice", "office", previous="lab")
        d.run_all()
        assert service.prestages_started == 1
        staged = lab_pc.application("player")
        assert staged.has_component("codec")
        assert staged.status is AppStatus.INSTALLED

    def test_threshold_blocks_uncertain_predictions(self):
        d, office_pc, lab_pc = commuting_deployment()
        d.add_space("hallway")
        # A 50/50 history: office -> lab once, office -> hallway once.
        d.announce_location("alice", "office")
        d.announce_location("alice", "lab", previous="office")
        d.announce_location("alice", "office", previous="lab")
        d.announce_location("alice", "hallway", previous="office")
        d.run_all()
        launch(d, office_pc)
        service = d.enable_prestaging(probability_threshold=1.0)
        d.announce_location("alice", "office", previous="hallway")
        d.run_all()
        assert service.prestages_started == 0
        assert service.predictions_skipped > 0

    def test_no_duplicate_staging(self):
        d, office_pc, lab_pc = commuting_deployment()
        teach_routine(d, repetitions=5)
        launch(d, office_pc)
        service = d.enable_prestaging(probability_threshold=0.6)
        for _ in range(3):  # repeated same-space fixes must not re-push
            d.announce_location("alice", "office", previous="lab")
            d.run_all()
        assert service.prestages_started == 1

    def test_enable_is_idempotent(self):
        d, office_pc, lab_pc = commuting_deployment()
        first = d.enable_prestaging()
        assert d.enable_prestaging() is first

    def test_threshold_validation(self):
        d, _, _ = commuting_deployment()
        from repro.core.prestage import PrestagingService
        with pytest.raises(ValueError):
            PrestagingService(d, probability_threshold=0.0)


class TestPrestageInvalidation:
    def test_lifecycle_event_invalidates_staged_pairs(self):
        """Any lifecycle transition drops all staged pairs for that app
        (and only that app)."""
        from repro.context.model import ContextEvent, TOPIC_APP
        d, office_pc, lab_pc = commuting_deployment()
        service = d.enable_prestaging()
        service._already_staged = {("player", "lab-pc"),
                                   ("player", "office-pc"),
                                   ("other", "lab-pc")}
        d.bus.publish(ContextEvent(
            topic=TOPIC_APP, subject="player",
            attributes={"event": "resumed", "host": "lab-pc",
                        "owner": "alice"}))
        d.run_all()
        assert service._already_staged == {("other", "lab-pc")}

    def test_non_lifecycle_event_is_ignored(self):
        from repro.context.model import ContextEvent, TOPIC_APP
        d, _, _ = commuting_deployment()
        service = d.enable_prestaging()
        service._already_staged = {("player", "lab-pc")}
        d.bus.publish(ContextEvent(
            topic=TOPIC_APP, subject="player",
            attributes={"event": "adapted"}))
        d.run_all()
        assert service._already_staged == {("player", "lab-pc")}

    def test_commute_back_and_forth_restages(self):
        """Regression: the staged-pair memo was never invalidated, so a
        user commuting office -> lab -> office got a pre-stage on the
        first trip only."""
        d, office_pc, lab_pc = commuting_deployment()
        teach_routine(d)
        launch(d, office_pc)
        service = d.enable_prestaging(probability_threshold=0.6)
        # First morning at the office: lab predicted, components pushed.
        d.announce_location("alice", "office", previous="lab")
        d.run_all()
        assert service.prestages_started == 1
        # She walks to the lab (the app follows into the staged host --
        # a hit) and the resume immediately re-stages the trip home.
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        assert lab_pc.application("player").status is AppStatus.RUNNING
        assert service.hits == 1
        assert service.prestages_started == 2
        # Walking back is therefore warm too, and re-stages the lab again.
        d.announce_location("alice", "office", previous="lab")
        d.run_all()
        assert office_pc.application("player").status is AppStatus.RUNNING
        assert service.hits == 2
        assert service.prestages_started == 3
        # A repeated same-space fix must not re-push the staged pair.
        d.announce_location("alice", "office")
        d.run_all()
        assert service.prestages_started == 3

    def test_uninstall_publishes_stop_and_invalidates(self):
        d, office_pc, lab_pc = commuting_deployment()
        app = launch(d, office_pc)
        service = d.enable_prestaging()
        service._already_staged = {("player", "lab-pc")}
        office_pc.uninstall_application("player")
        d.run_all()
        assert service._already_staged == set()


class TestPrestageWithContractNet:
    def test_prestage_targets_the_host_the_cfp_would_pick(self):
        """Staged components must land where the later contract-net
        migration actually goes."""
        from repro.core import MiddlewareConfig
        config = MiddlewareConfig(destination_strategy="contract-net")
        d = Deployment(seed=21, config=config)
        d.add_space("office")
        d.add_space("lab")
        office = d.add_host("office-pc", "office")
        busy = d.add_host("lab-busy", "lab")
        idle = d.add_host("lab-idle", "lab")
        d.add_gateway("gw-office", "office")
        d.add_gateway("gw-lab", "lab")
        d.connect_spaces("office", "lab")
        for i in range(2):
            filler = MusicPlayerApp.build(
                f"filler-{i}", "intern", track_bytes=1000,
                user_profile=UserProfile(
                    "intern", preferences={"follow_user": False}))
            busy.launch_application(filler)
        d.run_all()
        # Teach the commute, then launch and enable pre-staging.
        for _ in range(2):
            d.announce_location("alice", "office")
            d.run_all()
            d.announce_location("alice", "lab", previous="office")
            d.run_all()
        app = MusicPlayerApp.build(
            "player", "alice", track_bytes=1_000_000,
            user_profile=UserProfile("alice",
                                     preferences={"follow_user": True}))
        office.launch_application(app)
        d.run_all()
        d.enable_prestaging(probability_threshold=0.6)
        d.announce_location("alice", "office", previous="lab")
        d.run_all()
        assert "player" in idle.applications   # staged on the idle host
        assert "player" not in busy.applications
        # The real move then reuses everything on lab-idle.
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        moved = idle.application("player")
        assert moved.status is AppStatus.RUNNING
        outcome = [o for o in d.outcomes.values()
                   if o.plan.app_name == "player"
                   and not o.plan.prestage][-1]
        assert outcome.plan.carry_components == []

    def test_tied_load_prestage_matches_contract_net_award(self):
        """With identical candidate hosts both orderings break the tie the
        same way: the staged destination equals the host the later
        contract-net migration awards (the verified agreement between
        PrestagingService._choose_destination and the AA's bid sort)."""
        from repro.core import MiddlewareConfig
        config = MiddlewareConfig(destination_strategy="contract-net")
        d = Deployment(seed=21, config=config)
        d.add_space("office")
        d.add_space("lab")
        office = d.add_host("office-pc", "office")
        # Added in reverse name order: the tie must break on host name,
        # not on insertion order.
        second = d.add_host("lab-b2", "lab")
        first = d.add_host("lab-b1", "lab")
        d.add_gateway("gw-office", "office")
        d.add_gateway("gw-lab", "lab")
        d.connect_spaces("office", "lab")
        for _ in range(2):
            d.announce_location("alice", "office")
            d.run_all()
            d.announce_location("alice", "lab", previous="office")
            d.run_all()
        app = MusicPlayerApp.build(
            "player", "alice", track_bytes=500_000,
            user_profile=UserProfile("alice",
                                     preferences={"follow_user": True}))
        office.launch_application(app)
        d.run_all()
        d.enable_prestaging(probability_threshold=0.6)
        d.announce_location("alice", "office", previous="lab")
        d.run_all()
        assert "player" in first.applications   # staged on the tie winner
        assert "player" not in second.applications
        d.announce_location("alice", "lab", previous="office")
        d.run_all()
        # The migration went to the same host the pre-stage picked, so
        # everything staged is reused.
        assert first.application("player").status is AppStatus.RUNNING
        outcome = [o for o in d.outcomes.values()
                   if o.plan.app_name == "player"
                   and not o.plan.prestage][-1]
        assert outcome.plan.destination == "lab-b1"
        assert outcome.plan.carry_components == []


class TestExplicitPlacements:
    def test_stage_with_placements_skips_the_fleet_scan(self):
        d, office_pc, lab_pc = commuting_deployment()
        app = launch(d, office_pc)
        service = d.enable_prestaging()
        started = service.stage("alice", "lab",
                                placements=[(office_pc, app)])
        d.run_all()
        assert started == 1
        assert service.prestages_started == 1
        assert app.host == "office-pc"  # execution did not move

    def test_stage_skips_apps_already_in_the_predicted_space(self):
        d, office_pc, _lab_pc = commuting_deployment()
        app = launch(d, office_pc)
        service = d.enable_prestaging()
        assert service.stage("alice", "office",
                             placements=[(office_pc, app)]) == 0
        assert service.prestages_started == 0

    def test_stage_memoizes_repeat_pushes(self):
        d, office_pc, _lab_pc = commuting_deployment()
        app = launch(d, office_pc)
        service = d.enable_prestaging()
        assert service.stage("alice", "lab",
                             placements=[(office_pc, app)]) == 1
        d.run_all()
        assert service.stage("alice", "lab",
                             placements=[(office_pc, app)]) == 0
        assert service.prestages_started == 1


def test_prestaging_leaves_routine_commute_latency_unchanged():
    """On a routine commute the predicted next hop still holds the copy
    the app left there, so every push is a no-op (nothing to carry) and
    each follow-me migration takes the same time with or without
    prestaging."""
    from tests.integration.building import run_building_day

    def run(prestaging):
        d = run_building_day(spaces=3, users=3, seed=2,
                             prestaging=prestaging, duration_ms=1_800_000.0)
        return list(d.outcomes.values())

    cold, warm = run(False), run(True)
    pushes = [o for o in warm if o.plan.prestage]
    assert pushes and not any(o.plan.prestage for o in cold)
    assert all(o.completed and not o.plan.carry_components for o in pushes)
    cold_moves = [o for o in cold if not o.plan.prestage]
    warm_moves = [o for o in warm if not o.plan.prestage]
    assert len(cold_moves) == len(warm_moves) > 0
    for before, after in zip(cold_moves, warm_moves):
        assert before.completed and after.completed
        assert (after.plan.app_name, after.plan.destination) == \
            (before.plan.app_name, before.plan.destination)
        assert after.total_ms == pytest.approx(before.total_ms, abs=0.01)
