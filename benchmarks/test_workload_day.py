"""Macro-benchmark: a small city's day of commuter churn.

The paper measures single migrations; this workload answers the
deployment question at neighbourhood scale: with a seeded commuter
population flowing home -> transit -> office -> home through the
middleware, does every follow-me application keep running, and what does
the churn cost?  The generator is :mod:`repro.city` -- the same one
``python -m repro city`` drives at 200..2,000 spaces; here it runs at
sizes a benchmark round can afford.
"""

import pytest

from conftest import record_report
from repro.bench.reporting import format_kv_table
from repro.city import CityConfig, CityWorkload


def run_city(spaces: int, users: int, seed: int = 11):
    workload = CityWorkload(CityConfig(
        seed=seed, spaces=spaces, users=users, admission_limit=16))
    return workload, workload.run()


def as_row(result):
    slo = result.slo.to_dict()
    return {
        "spaces": result.spaces,
        "users": result.users,
        "apps": result.apps,
        "legs": result.legs_submitted,
        "failed": result.legs_failed,
        "prestage_hits": result.prestage_hits,
        "p50_ms": slo["latency_ms"]["p50"],
        "p99_ms": slo["latency_ms"]["p99"],
    }


@pytest.fixture(scope="module")
def workload_rows():
    rows = []
    for spaces, users in ((10, 10), (16, 40), (24, 80)):
        _, result = run_city(spaces, users)
        rows.append(as_row(result))
    return rows


def test_city_every_leg_lands(benchmark, workload_rows):
    record_report("workload_day", format_kv_table(
        "Macro workload -- one simulated day of commuter churn",
        workload_rows))
    for row in workload_rows:
        assert row["failed"] == 0
        # Every dwell away from home chases the user's apps.
        assert row["legs"] >= row["apps"]
    benchmark.pedantic(lambda: run_city(10, 10), rounds=2, iterations=1)


def test_city_apps_end_the_day_back_home(benchmark):
    workload, result = run_city(12, 20)
    assert result.legs_failed == 0
    d = workload.deployment
    for app_name, host in workload.app_host.items():
        user = workload._app_user[app_name]
        assert d.topology.space_of(host) == user.home, (
            f"{app_name} ended on {host}, not at {user.name}'s home")
        app = d.middleware(host).applications[app_name]
        assert app.status.value == "running"
    benchmark.pedantic(lambda: run_city(12, 20), rounds=1, iterations=1)


def test_city_migration_latency_bounded(benchmark, workload_rows):
    for row in workload_rows:
        assert row["p99_ms"] < 10_000.0
        assert row["p50_ms"] <= row["p99_ms"]
    benchmark.pedantic(lambda: run_city(16, 40), rounds=1, iterations=1)
