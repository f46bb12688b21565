"""Simcheck coverage of the pipeline work: the ``migration_protocol``
scenario knob, fuzzing over the FIPA stack, and the migration-terminal
invariant's sabotage hook."""

import pytest

from repro.simcheck import (
    SABOTAGE_HOOKS,
    SABOTAGE_VIOLATIONS,
    Scenario,
    SimcheckError,
    generate_scenario,
    run_scenario,
)


class TestScenarioKnob:
    def test_defaults_to_direct(self, tiny_scenario):
        assert tiny_scenario.migration_protocol == "direct"

    def test_roundtrips_through_wire_format(self, tiny_scenario):
        tiny_scenario.migration_protocol = "fipa"
        clone = Scenario.from_dict(tiny_scenario.to_dict())
        assert clone.migration_protocol == "fipa"
        assert clone.to_dict() == tiny_scenario.to_dict()

    def test_validate_rejects_unknown_protocol(self, tiny_scenario):
        tiny_scenario.migration_protocol = "corba"
        with pytest.raises(SimcheckError, match="migration protocol"):
            tiny_scenario.validate()

    def test_generator_draws_both_protocols(self):
        drawn = {generate_scenario(seed).migration_protocol
                 for seed in range(40)}
        assert drawn == {"direct", "fipa"}


class TestFipaScenarios:
    def test_fipa_scenario_runs_clean(self, tiny_scenario):
        tiny_scenario.migration_protocol = "fipa"
        report = run_scenario(tiny_scenario)
        assert report.ok, [str(v) for v in report.violations]
        assert any(leg.status == "completed" for leg in report.legs)

    def test_fipa_and_direct_runs_both_terminate_migrations(self,
                                                            tiny_scenario):
        for protocol in ("direct", "fipa"):
            tiny_scenario.migration_protocol = protocol
            report = run_scenario(tiny_scenario)
            assert report.ok, (protocol,
                               [str(v) for v in report.violations])

    def test_unroutable_proposal_reply_times_out_cleanly(self):
        """Seed 8666: a partition cuts the destination's ACCEPT-PROPOSAL
        off from the proposer.  The reply is dropped, not raised out of
        the event loop, and the initiator's deadline fails the leg."""
        report = run_scenario(generate_scenario(8666))
        assert report.ok, [str(v) for v in report.violations]
        failed = [leg for leg in report.legs if leg.status == "failed"]
        assert [leg.detail for leg in failed] == [
            "capability negotiation with h10 timed out"]


class TestEarlyFinalChunk:
    @pytest.mark.parametrize("seed", [2132, 5625, 6352, 9198])
    def test_migration_terminates(self, seed):
        """The payload-bearing final chunk arrived while an earlier chunk
        was still missing, and the receiver dropped its payload: the
        agent never checked in, the migration never terminated and the
        receiver's chunk table leaked."""
        report = run_scenario(generate_scenario(seed))
        assert report.ok, [str(v) for v in report.violations]
        assert {leg.status for leg in report.legs} == {"completed"}


class TestWedgedMigrationSabotage:
    def test_hook_registered_with_its_violation(self):
        assert "wedged-migration" in SABOTAGE_HOOKS
        assert SABOTAGE_VIOLATIONS["wedged-migration"] == \
            "migration-terminal"

    def test_planted_nonterminal_outcome_is_detected(self, tiny_scenario):
        tiny_scenario.sabotage = "wedged-migration"
        report = run_scenario(tiny_scenario)
        assert not report.ok
        violation = next(v for v in report.violations
                         if v.kind == "migration-terminal")
        assert "wedged-app" in violation.detail
        assert "never reached a terminal phase" in violation.detail
