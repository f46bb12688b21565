"""Streaming fleet runner: a small city's day, end to end."""

import pytest

from repro.city import CityConfig, CityResult, CityWorkload
from repro.city.params import CITY_TIERS


def tiny_config(**overrides):
    defaults = dict(seed=3, spaces=10, users=8, admission_limit=8)
    defaults.update(overrides)
    return CityConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_result():
    """One shared tiny-city day (module scope: a run is a full sim)."""
    return CityWorkload(tiny_config()).run()


class TestConfig:
    def test_for_tier_resolves_named_scales(self):
        config = CityConfig.for_tier("quick", seed=7)
        assert (config.spaces, config.users) == (
            CITY_TIERS["quick"].spaces, CITY_TIERS["quick"].users)
        assert config.seed == 7
        assert config.tier_name() == "quick"

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown city tier"):
            CityConfig.for_tier("galaxy")

    def test_custom_sizes_report_a_custom_tier(self):
        assert tiny_config().tier_name() == "custom"

    def test_quick_tier_meets_the_acceptance_floor(self):
        quick = CITY_TIERS["quick"]
        full = CITY_TIERS["full"]
        assert quick.spaces >= 200 and quick.users >= 2_000
        assert full.spaces >= 2_000 and full.users >= 50_000


class TestDayOutcome:
    def test_every_leg_lands(self, tiny_result):
        r = tiny_result
        assert r.legs_submitted > 0
        assert r.legs_completed == r.legs_submitted
        assert r.legs_failed == 0
        assert r.legs_rejected == 0

    def test_population_scale_is_reported(self, tiny_result):
        r = tiny_result
        assert r.spaces == 10
        assert r.users == 8
        assert r.apps >= r.users
        assert r.moves == sum(r.hourly_moves)
        assert r.events_processed > 0
        assert r.sim_makespan_ms > 0

    def test_prestaging_ran_during_the_morning_commute(self, tiny_result):
        r = tiny_result
        assert r.prestage_pushes == r.apps
        assert 0 <= r.prestage_hits <= r.prestage_pushes

    def test_slo_block_covers_the_fleet_indicators(self, tiny_result):
        slo = tiny_result.slo.to_dict()
        assert slo["latency_ms"]["p99"] >= slo["latency_ms"]["p50"] > 0
        assert slo["deadlines"]["total"] == tiny_result.legs_submitted
        assert slo["deadlines"]["miss_rate"] is not None
        assert slo["prestage"]["pushes"] == tiny_result.prestage_pushes
        assert {"bulk", "control"} <= set(slo["link_utilization"])

    def test_summary_is_human_readable(self, tiny_result):
        text = tiny_result.summary()
        assert "10 spaces" in text
        assert "rush hour" in text
        assert tiny_result.trace_digest[:16] in text


class TestDeterminism:
    def test_same_seed_reproduces_both_digests(self, tiny_result):
        again = CityWorkload(tiny_config()).run()
        assert again.trace_digest == tiny_result.trace_digest
        assert again.fleet_digest == tiny_result.fleet_digest
        assert again.legs_submitted == tiny_result.legs_submitted
        assert again.sim_makespan_ms == tiny_result.sim_makespan_ms

    def test_different_seed_diverges(self, tiny_result):
        other = CityWorkload(tiny_config(seed=4)).run()
        assert other.trace_digest != tiny_result.trace_digest


class TestAppsFollowUsers:
    def test_every_app_ends_the_day_back_home(self):
        workload = CityWorkload(tiny_config(seed=5))
        result = workload.run()
        assert isinstance(result, CityResult)
        assert not workload._in_flight
        d = workload.deployment
        for app_name, host in workload.app_host.items():
            user = workload._app_user[app_name]
            assert d.topology.space_of(host) == user.home
            app = d.middleware(host).applications[app_name]
            assert app.status.value == "running"

    def test_run_is_single_shot(self):
        workload = CityWorkload(tiny_config())
        workload.run()
        with pytest.raises(RuntimeError, match="already consumed"):
            workload.run()


class TestInvariantIntegration:
    def test_clean_day_has_no_violations(self):
        result = CityWorkload(tiny_config(users=4)).run(
            check_invariants=True)
        assert result.invariant_violations == []
        assert result.legs_completed > 0

    def test_prestage_can_be_disabled(self):
        result = CityWorkload(tiny_config(prestage=False)).run()
        assert result.prestage_pushes == 0
        assert result.prestage_hits == 0
        assert result.legs_completed == result.legs_submitted
