"""repro.simcheck: seeded scenario fuzzing for the whole middleware stack.

One integer seed deterministically generates a topology, applications, a
migration schedule and a fault plan; the run is watched by runtime
invariant checkers (component conservation, clock monotonicity, byte
accounting, window-cursor sanity, rx-table bounds); failures are greedily
shrunk to a minimal scenario and frozen as a replayable JSON artifact.

CLI::

    python -m repro simcheck --seeds 25          # fuzz seeds 0..24
    python -m repro simcheck --replay repro.json # re-run an artifact

See docs/TESTING.md for the full workflow.
"""

from repro.simcheck.invariants import (
    VIOLATION_KINDS,
    InvariantChecker,
    InvariantViolation,
)
from repro.simcheck.runner import (
    SABOTAGE_HOOKS,
    SABOTAGE_VIOLATIONS,
    LegResult,
    SimcheckReport,
    behaviour_digest,
    check_determinism,
    run_scenario,
    trace_digest,
)
from repro.simcheck.scenario import (
    APP_KINDS,
    SCENARIO_FORMAT,
    AppSpec,
    HostSpec,
    MigrationLeg,
    Scenario,
    SimcheckError,
    build_application,
    build_deployment,
    generate_scenario,
)
from repro.simcheck.shrink import (
    ARTIFACT_FORMAT,
    ShrinkResult,
    load_artifact,
    replay_artifact,
    shrink,
    write_artifact,
)

__all__ = [
    "APP_KINDS",
    "ARTIFACT_FORMAT",
    "AppSpec",
    "HostSpec",
    "InvariantChecker",
    "InvariantViolation",
    "LegResult",
    "MigrationLeg",
    "SABOTAGE_HOOKS",
    "SABOTAGE_VIOLATIONS",
    "SCENARIO_FORMAT",
    "Scenario",
    "ShrinkResult",
    "SimcheckError",
    "SimcheckReport",
    "VIOLATION_KINDS",
    "behaviour_digest",
    "build_application",
    "build_deployment",
    "check_determinism",
    "generate_scenario",
    "load_artifact",
    "replay_artifact",
    "run_scenario",
    "shrink",
    "trace_digest",
    "write_artifact",
]
