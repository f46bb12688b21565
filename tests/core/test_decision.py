"""Tests for the rule-driven decision engine (paper Fig. 6 semantics)."""

import pytest

import repro.core.rulesets as rulesets
from repro.core.autonomous_agent import DecisionEngine
from repro.core.rulesets import default_migration_rules, paper_rules


@pytest.fixture
def engine():
    return DecisionEngine()


def test_moves_when_network_fast_and_device_ok(engine):
    decision = engine.evaluate("h1", "h2", response_time_ms=50.0,
                               device_compatible=True,
                               destination_has_components=True)
    assert decision.move
    assert decision.destination == "h2"


def test_no_move_when_network_slow(engine):
    """Rule 3's 1000 ms threshold."""
    decision = engine.evaluate("h1", "h2", response_time_ms=1500.0,
                               device_compatible=True,
                               destination_has_components=True)
    assert not decision.move


def test_boundary_inclusive_threshold(engine):
    assert not engine.evaluate("h1", "h2", 1000.0, True, True).move
    assert engine.evaluate("h1", "h2", 999.9, True, True).move


def test_no_move_when_device_incompatible(engine):
    decision = engine.evaluate("h1", "h2", response_time_ms=50.0,
                               device_compatible=False,
                               destination_has_components=True)
    assert not decision.move


def test_carry_policy_delta_when_components_present(engine):
    decision = engine.evaluate("h1", "h2", 50.0, True,
                               destination_has_components=True)
    assert decision.carry_policy == "delta"


def test_carry_policy_full_when_destination_empty(engine):
    decision = engine.evaluate("h1", "h2", 50.0, True,
                               destination_has_components=False)
    assert decision.carry_policy == "full"


def test_custom_threshold(monkeypatch):
    """The Move rule gates on RESPONSE_TIME_THRESHOLD_MS as the rules are
    parsed, not on a literal of its own."""
    assert rulesets.RESPONSE_TIME_THRESHOLD_MS == 1000.0  # Fig. 6
    monkeypatch.setattr(rulesets, "RESPONSE_TIME_THRESHOLD_MS", 100.0)
    engine = DecisionEngine()
    assert not engine.evaluate("h1", "h2", 200.0, True, True).move
    assert engine.evaluate("h1", "h2", 50.0, True, True).move


def test_decision_is_explainable(engine):
    """Every move command traces back to the rule that derived it."""
    decision = engine.evaluate("h1", "h2", 50.0, True, True)
    assert decision.derivation is not None
    assert decision.derivation.rule_name == "Move"
    assert len(decision.derivation.supports) >= 3


def test_negative_decision_has_no_derivation(engine):
    decision = engine.evaluate("h1", "h2", 5000.0, True, True)
    assert decision.derivation is None


def test_compatible_resources_fed_as_facts(engine):
    decision = engine.evaluate(
        "h1", "h2", 50.0, True, True,
        compatible_resources=(("imcl:spk1", "imcl:spk2"),))
    assert decision.move
    assert decision.facts >= 6


def test_evaluations_counted(engine):
    engine.evaluate("h1", "h2", 50.0, True, True)
    engine.evaluate("h1", "h2", 50.0, True, True)
    assert engine.evaluations == 2


def test_paper_rules_parse_and_have_three_rules():
    rules = paper_rules()
    assert len(rules) == 3
    assert "Rule1" in rules and "Rule2" in rules and "Rule3" in rules


def test_default_rules_contain_move_and_carry():
    rules = default_migration_rules()
    assert "Move" in rules
    assert "CarryAll" in rules
    assert "CarryDelta" in rules
