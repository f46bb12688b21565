"""Tests for the adaptive/static binding resolver."""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.core.binding import (
    BindingPolicy,
    BindingResolver,
    MigrationKind,
)
from repro.core.errors import MigrationError
from repro.core.pipeline import plan_from_dict, plan_to_dict


def player(track_bytes=5_000_000):
    return MusicPlayerApp.build("player", "alice", track_bytes=track_bytes)


@pytest.fixture
def resolver():
    return BindingResolver()


class TestStaticPolicy:
    def test_carries_everything_transferable(self, resolver):
        plan = resolver.plan(player(), "h1", "h2", [],
                             policy=BindingPolicy.STATIC)
        assert sorted(plan.carry_components) == \
            ["codec", "player-ui", "track-01"]
        assert plan.reuse_components == []
        assert plan.remote_data == []
        assert plan.estimated_bytes == 150_000 + 250_000 + 5_000_000

    def test_static_ignores_destination_inventory(self, resolver):
        plan = resolver.plan(player(), "h1", "h2",
                             ["logic", "presentation", "data"],
                             policy=BindingPolicy.STATIC)
        assert len(plan.carry_components) == 3


class TestAdaptivePolicy:
    def test_paper_benchmark_scenario(self, resolver):
        """Dest has UI only; data too big to carry -> logic carried, UI
        reused, track remote."""
        plan = resolver.plan(player(), "h1", "h2", ["presentation"],
                             policy=BindingPolicy.ADAPTIVE)
        assert plan.carry_components == ["codec"]
        assert plan.reuse_components == ["player-ui"]
        assert plan.remote_data == ["track-01"]
        assert plan.remote_data_bytes["track-01"] == 5_000_000
        assert plan.estimated_bytes == 150_000

    def test_everything_present_wraps_state_only(self, resolver):
        plan = resolver.plan(player(), "h1", "h2",
                             ["logic", "presentation", "data"],
                             policy=BindingPolicy.ADAPTIVE)
        assert plan.carry_components == []
        assert len(plan.reuse_components) == 3
        assert plan.estimated_bytes == 0

    def test_small_data_carried_even_when_absent(self, resolver):
        plan = resolver.plan(player(track_bytes=100_000), "h1", "h2",
                             ["logic", "presentation"],
                             policy=BindingPolicy.ADAPTIVE)
        assert "track-01" in plan.carry_components
        assert plan.remote_data == []

    def test_empty_destination_carries_all(self, resolver):
        plan = resolver.plan(player(), "h1", "h2", [],
                             policy=BindingPolicy.ADAPTIVE)
        assert sorted(plan.carry_components) == ["codec", "player-ui"]
        assert plan.remote_data == ["track-01"]


class TestResourceRebinds:
    def test_matched_resource_rebinds_locally(self, resolver):
        plan = resolver.plan(
            player(), "h1", "h2", [],
            resource_matches={"imcl:speaker-of-player": "imcl:speaker-h2"})
        rebind = plan.resource_rebinds[0]
        assert rebind.target_resource == "imcl:speaker-h2"
        assert rebind.mode == "local"

    def test_unmatched_resource_binds_remotely(self, resolver):
        plan = resolver.plan(player(), "h1", "h2", [], resource_matches={})
        rebind = plan.resource_rebinds[0]
        assert rebind.mode == "remote"
        assert rebind.target_resource == rebind.original_resource

    def test_resources_never_carried(self, resolver):
        plan = resolver.plan(player(), "h1", "h2", [],
                             policy=BindingPolicy.STATIC)
        assert "speaker-binding" not in plan.carry_components


class TestPlanMechanics:
    def test_same_host_rejected(self, resolver):
        with pytest.raises(MigrationError):
            resolver.plan(player(), "h1", "h1", [])

    def test_plan_dict_roundtrip(self, resolver):
        plan = resolver.plan(player(), "h1", "h2", ["presentation"],
                             resource_matches={},
                             kind=MigrationKind.CLONE_DISPATCH)
        plan.token = "player#7"
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.kind is MigrationKind.CLONE_DISPATCH
        assert restored.carry_components == plan.carry_components
        assert restored.remote_data_bytes == plan.remote_data_bytes
        assert restored.token == "player#7"
        assert restored.resource_rebinds[0].mode == \
            plan.resource_rebinds[0].mode

    def test_summary_mentions_hosts(self, resolver):
        plan = resolver.plan(player(), "h1", "h2", [])
        assert "h1 -> h2" in plan.summary()
