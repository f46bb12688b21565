"""repro.city: city-scale population and workload generation.

The paper's evaluation stops at a handful of rooms; the roadmap's north
star is "heavy traffic from millions of users".  This package closes
part of that gap:

- :mod:`repro.city.topology` -- seeded synthesis of thousands of smart
  spaces in a gateway hierarchy (homes / transit hubs / offices /
  meeting rooms) with per-tier link profiles;
- :mod:`repro.city.population` -- synthetic commuters with daily
  mobility traces, rush-hour arrival curves and per-user app mixes
  (same seed -> byte-identical trace digest);
- :mod:`repro.city.workload` -- the streaming fleet runner: trace ->
  migration legs through the MigrationScheduler + PrestagingService in
  sim-time order, one pending event per user, never a materialized
  schedule; fleet SLOs via :mod:`repro.obs.slo`;
- :mod:`repro.city.scenario_io` -- compile bounded city slices to
  :mod:`repro.simcheck` scenarios so the shrinker can minimize
  city-scale failures into replayable artifacts.

Entry point: ``python -m repro city``.
"""

from repro.city.params import (
    BANDWIDTH_SWEEP_MBPS,
    CITY_TIERS,
    CLONE_FANOUTS,
    PAPER_FILE_SIZES_MB,
    CityTier,
    mb,
)
from repro.city.population import (
    DAY_MS,
    HOUR_MS,
    Population,
    TraceEvent,
    UserApp,
    UserSpec,
)
from repro.city.scenario_io import (
    compile_scenario,
    generate_city_scenario,
    minimize_city_failure,
)
from repro.city.topology import (
    CityTopology,
    SpaceSpec,
    build_deployment,
    composition,
    synthesize,
)
from repro.city.workload import CityConfig, CityResult, CityWorkload

__all__ = [
    "BANDWIDTH_SWEEP_MBPS",
    "CITY_TIERS",
    "CLONE_FANOUTS",
    "PAPER_FILE_SIZES_MB",
    "CityTier",
    "mb",
    "DAY_MS",
    "HOUR_MS",
    "Population",
    "TraceEvent",
    "UserApp",
    "UserSpec",
    "compile_scenario",
    "generate_city_scenario",
    "minimize_city_failure",
    "CityTopology",
    "SpaceSpec",
    "build_deployment",
    "composition",
    "synthesize",
    "CityConfig",
    "CityResult",
    "CityWorkload",
]
