"""Simcheck coverage of the federated-registry scenario dimension.

The three federation sabotage tags themselves (``stale-cache``,
``dropped-invalidation``, ``lost-reply``) are proven to trip their
matching checkers by the parametrized sweep in ``test_invariants.py``;
these tests pin the plumbing around them: the scenario flag
round-trips, the runner auto-federates sabotage tags that need it,
clean federated runs stay clean and deterministic, and shrinker
artifacts carry the federation counters.
"""

import pytest

from repro.simcheck import (
    AppSpec, HostSpec, MigrationLeg, Scenario, ShrinkResult, run_scenario)
from repro.simcheck.runner import (
    SABOTAGE_HOOKS, SABOTAGE_NEEDS_FEDERATION)
from repro.simcheck.shrink import artifact_dict


def federated_scenario(sabotage: str = "") -> Scenario:
    return Scenario(
        seed=11,
        spaces=["lab", "annex"],
        gateways={"lab": "gw-lab", "annex": "gw-annex"},
        space_links=[("lab", "annex")],
        hosts=[HostSpec("h1", "lab"), HostSpec("h2", "annex")],
        apps=[AppSpec("pad", "editor", "ann", 50_000, "h1")],
        legs=[MigrationLeg("pad", "h2", pause_before_ms=50.0)],
        warmup_ms=100.0,
        sabotage=sabotage,
        federated_registry=True,
    ).validate()


class TestScenarioFlag:
    def test_flag_round_trips_through_json(self):
        scenario = federated_scenario()
        data = scenario.to_dict()
        assert data["federated_registry"] is True
        assert Scenario.from_dict(data).federated_registry is True

    def test_legacy_dicts_default_to_the_flat_registry(self):
        data = federated_scenario().to_dict()
        del data["federated_registry"]
        assert Scenario.from_dict(data).federated_registry is False

    def test_federation_sabotage_tags_are_registered(self):
        assert SABOTAGE_NEEDS_FEDERATION <= set(SABOTAGE_HOOKS)

    @pytest.mark.parametrize("tag", sorted(SABOTAGE_NEEDS_FEDERATION))
    def test_runner_auto_federates_tags_that_need_it(self, tag):
        scenario = federated_scenario(sabotage=tag)
        scenario.federated_registry = False
        report = run_scenario(scenario)
        assert scenario.federated_registry is True
        assert report.stats["registry_shards"] >= 1


class TestCleanFederatedRuns:
    def test_clean_run_has_no_violations_and_federation_stats(self):
        report = run_scenario(federated_scenario())
        assert report.violations == []
        stats = report.stats
        # Fallback shard plus one per gateway space.
        assert stats["registry_shards"] == 3
        assert stats["registry_aggregators"] >= 1
        assert stats["registry_cache_misses"] >= 1
        assert stats["migrations_completed"] == 1

    def test_federated_runs_are_digest_stable(self):
        first = run_scenario(federated_scenario())
        second = run_scenario(federated_scenario())
        assert first.digest == second.digest

    def test_federated_and_flat_runs_have_distinct_digests(self):
        """The flag genuinely changes the built deployment (shard RPCs
        appear on the wire), not just the reporting."""
        flat = federated_scenario()
        flat.federated_registry = False
        assert run_scenario(flat).digest != run_scenario(
            federated_scenario()).digest


class TestShrinkArtifacts:
    def test_artifact_carries_the_federation_counters(self):
        scenario = federated_scenario(sabotage="stale-cache")
        report = run_scenario(scenario)
        assert report.violations, "sabotage should have tripped a checker"
        result = ShrinkResult(scenario=scenario, report=report,
                              violation=report.violations[0], evaluations=1)
        artifact = artifact_dict(result, scenario)
        assert "registry_shards" in artifact["stats"]
        assert artifact["scenario"]["federated_registry"] is True
        assert artifact["violation"]["kind"] == "stale-cache-serve"
