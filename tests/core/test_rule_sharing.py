"""The migration rule set is parsed once per deployment and shared."""

from repro.core import Deployment, MiddlewareConfig


def build(config=None) -> Deployment:
    d = Deployment(seed=2, config=config)
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


def test_configured_threshold_reaches_the_move_rule():
    d = build(MiddlewareConfig(response_time_threshold_ms=250.0))
    assert move_threshold(d.middleware("pc2").aa.engine.rules) == 250.0
    assert move_threshold(build().migration_rules) == 1000.0


def test_deployments_do_not_share_rule_sets():
    fast = build(MiddlewareConfig(response_time_threshold_ms=100.0))
    slow = build(MiddlewareConfig(response_time_threshold_ms=2000.0))
    assert fast.migration_rules is not slow.migration_rules
    assert move_threshold(fast.migration_rules) == 100.0
    assert move_threshold(slow.migration_rules) == 2000.0
    # No process-wide memo: equal configs still get their own rule set.
    assert build().migration_rules is not build().migration_rules
