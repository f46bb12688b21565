"""Test-suite configuration.

Hypothesis runs with a deterministic profile: no per-example deadline (a
loaded machine must not turn a slow example into a flaky failure) and
derandomized example generation (identical inputs on every run, fitting a
reproduction repository where bit-identical behaviour is a feature).

The autouse ``fresh_global_state`` fixture re-seeds every module/class
level counter before each test (ACL reply ids, protocol conversation ids,
registry request ids, snapshot ids), so no test can depend on -- or be
broken by -- the execution order of the tests before it.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def fresh_global_state():
    """Isolate tests from cross-test global-counter drift."""
    from repro.simcheck import reset_global_state

    reset_global_state()
    yield
