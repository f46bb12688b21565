"""The migration rule set is parsed once per deployment, at first use,
and shared by the deployment's hosts."""

import repro.core.rulesets as rulesets
import repro.ontology.rules as rules
from repro.core import Deployment
from repro.ontology.owl import Ontology
from repro.simcheck.scenario import (
    build_application,
    build_deployment,
    generate_scenario,
)


def build() -> Deployment:
    d = Deployment(seed=2)
    d.add_space("room")
    for name in ("pc1", "pc2", "pc3"):
        d.add_host(name, "room")
    return d


def move_threshold(rules) -> float:
    (less_than,) = [call for call in rules.get("Move").builtins
                    if call.name == "lessThan"]
    return less_than.args[1].value


def test_every_host_shares_the_deployments_rule_set():
    d = build()
    engines = [m.aa.engine for m in d.middlewares.values()]
    assert len({id(engine) for engine in engines}) == 3
    assert all(engine.rules is d.migration_rules for engine in engines)


def test_configured_threshold_reaches_the_move_rule(monkeypatch):
    assert move_threshold(build().migration_rules) == \
        rulesets.RESPONSE_TIME_THRESHOLD_MS
    monkeypatch.setattr(rulesets, "RESPONSE_TIME_THRESHOLD_MS", 250.0)
    d = build()
    assert move_threshold(d.middleware("pc2").aa.engine.rules) == 250.0


def test_deployments_do_not_share_rule_sets():
    # No process-wide memo: equal deployments get their own rule set.
    a, b = build(), build()
    assert a.migration_rules is not b.migration_rules
    assert move_threshold(a.migration_rules) == \
        move_threshold(b.migration_rules) == \
        rulesets.RESPONSE_TIME_THRESHOLD_MS


def test_building_and_running_a_deployment_parses_no_rules(monkeypatch):
    """Rules wait for a decision engine's first evaluation and the resource
    taxonomy is authored once per process, so building, launching and
    running a deployment parses no rule and declares no class."""
    calls = {"parse_rules": 0, "declare_class": 0}
    parse_rules = rules.parse_rules
    declare_class = Ontology.declare_class

    def counting_parse_rules(text):
        calls["parse_rules"] += 1
        return parse_rules(text)

    def counting_declare_class(self, *args, **kwargs):
        calls["declare_class"] += 1
        return declare_class(self, *args, **kwargs)

    # rulesets imported its own binding of parse_rules; count both.
    monkeypatch.setattr(rules, "parse_rules", counting_parse_rules)
    monkeypatch.setattr(rulesets, "parse_rules", counting_parse_rules)
    monkeypatch.setattr(Ontology, "declare_class", counting_declare_class)
    for seed in range(5):
        scenario = generate_scenario(seed)
        d = build_deployment(scenario)
        for spec in scenario.apps:
            d.middleware(spec.launch_host).launch_application(
                build_application(spec))
        d.run_all()
    assert calls == {"parse_rules": 0, "declare_class": 0}

    engine = next(iter(d.middlewares.values())).aa.engine
    assert engine.evaluate("h1", "h2", 50.0, True, True).move
    assert engine.evaluate("h1", "h2", 50.0, True, True).move
    assert calls == {"parse_rules": 1, "declare_class": 0}
