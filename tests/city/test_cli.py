"""`python -m repro city`, ``simcheck --city`` and the smoke-tier city day."""

import json

import pytest

from repro.__main__ import main
from repro.city import CityConfig, CityWorkload
from repro.obs import Observability
from repro.simcheck import trace_digest


class TestCityCommand:
    def test_tiny_city_day_prints_slos_and_writes_json(self, tmp_path,
                                                       capsys):
        slo_path = tmp_path / "city-slo.json"
        rc = main(["city", "--seed", "3", "--spaces", "10",
                   "--users", "6", "--slo-json", str(slo_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "10 spaces" in out
        assert "fleet SLO report (city, custom tier)" in out
        payload = json.loads(slo_path.read_text())
        assert payload["format"] == "repro.city.slo/1"
        assert payload["seed"] == 3
        assert payload["legs_submitted"] > 0
        assert len(payload["hourly_moves"]) == 24
        assert payload["slo"]["latency_ms"]["p99"] > 0
        assert payload["slo"]["deadlines"]["miss_rate"] is not None

    def test_check_invariants_flag_keeps_a_clean_day_green(self, capsys):
        rc = main(["city", "--seed", "3", "--spaces", "10", "--users", "4",
                   "--check-invariants"])
        assert rc == 0
        assert "INVARIANT VIOLATION" not in capsys.readouterr().out

    def test_simcheck_city_mode_fuzzes_compiled_cities(self, capsys):
        rc = main(["simcheck", "--city", "--seeds", "2", "--no-shrink"])
        assert rc == 0
        assert "all 2 seeds passed" in capsys.readouterr().out


def _smoke_city_day():
    """One smoke-tier commuter day: ``(result, simulation digest)``."""
    obs = Observability(trace=False)
    result = CityWorkload(CityConfig.for_tier("smoke", seed=11),
                          observability=obs).run()
    return result, trace_digest(obs)


@pytest.fixture(scope="module")
def city_record():
    return _smoke_city_day()


class TestCityBenchScenario:
    def test_record_schema_and_slo_block(self, city_record):
        result, sim_digest = city_record
        assert result.tier == "smoke"
        assert result.spaces >= 8
        assert result.legs_completed > 0
        assert result.trace_digest
        assert result.fleet_digest
        assert sim_digest
        slo = result.slo.to_dict()
        assert slo["latency_ms"]["p99"] > 0
        assert slo["deadlines"]["miss_rate"] is not None
        assert slo["prestage"]["pushes"] > 0
        assert {"bulk", "control"} <= set(slo["link_utilization"])
        json.dumps(slo)

    def test_same_seed_same_sim_digest(self, city_record):
        result, sim_digest = city_record
        again, again_digest = _smoke_city_day()
        assert again_digest == sim_digest
        assert again.trace_digest == result.trace_digest
        assert again.fleet_digest == result.fleet_digest
