"""Test-suite configuration.

Hypothesis runs with a deterministic profile: no per-example deadline (a
loaded machine must not turn a slow example into a flaky failure) and
derandomized example generation (identical inputs on every run, fitting a
reproduction repository where bit-identical behaviour is a feature).

No fixture resets process state between tests: every id sequence belongs
to an object of the deployment it numbers (``tests/integration/
test_determinism.py`` fails on a module- or class-level counter), so no
test can depend on -- or be broken by -- the tests that ran before it.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
