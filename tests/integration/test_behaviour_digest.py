"""The behaviour digest pins what the simulation did, not how it was
observed: it is invariant under tracing and attached checkers, and every
planted defect whose invariant fires moves it."""

import pytest

import repro.obs
from repro.obs import Observability
from repro.simcheck import (
    SABOTAGE_HOOKS,
    SABOTAGE_VIOLATIONS,
    behaviour_digest,
    generate_scenario,
    run_scenario,
)
from repro.simcheck import runner

SEEDS = (0, 3, 11)


class _InertChecker:
    """Stands in for InvariantChecker: hooks nothing, checks nothing."""

    violations: list = []
    on_violation = None

    def __init__(self, deployment):
        pass

    def install(self):
        return self

    def expect_application(self, app):
        pass

    def check_quiescent(self):
        return []


class _InertRecorder:
    def attach(self, observability):
        return self

    def snapshot(self):
        return []


class TestInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tracing_and_checkers_do_not_move_the_digest(self, seed,
                                                         monkeypatch):
        traced = run_scenario(generate_scenario(seed)).digest
        monkeypatch.setattr(repro.obs, "Observability",
                            lambda: Observability(trace=False))
        untraced = run_scenario(generate_scenario(seed)).digest
        monkeypatch.setattr(runner, "InvariantChecker", _InertChecker)
        monkeypatch.setattr(repro.obs, "FlightRecorder", _InertRecorder)
        bare = run_scenario(generate_scenario(seed)).digest
        assert traced == untraced == bare

    def test_trace_mode_does_not_move_the_ledger(self):
        from repro.bench.scale import concurrent_migration_experiment

        digests = []
        for trace in (True, False):
            obs = Observability(trace=trace)
            concurrent_migration_experiment(migrations=2, observability=obs)
            assert obs.ledger.records > 0
            digests.append(behaviour_digest(obs))
        assert digests[0] == digests[1]


class TestSensitivity:
    @pytest.mark.parametrize("tag", sorted(SABOTAGE_HOOKS))
    def test_every_fired_sabotage_moves_the_digest(self, tag):
        fired = 0
        for seed in SEEDS:
            clean = generate_scenario(seed)
            sabotaged = generate_scenario(seed)
            sabotaged.sabotage = tag
            report = run_scenario(sabotaged)
            # The runner may switch the federation on for the tag; compare
            # against a clean run of the same architecture.
            clean.federated_registry = sabotaged.federated_registry
            if not any(v.kind == SABOTAGE_VIOLATIONS[tag]
                       for v in report.violations):
                continue
            fired += 1
            assert report.digest != run_scenario(clean).digest, (tag, seed)
        assert fired, f"{tag} never fired on seeds {SEEDS}"
