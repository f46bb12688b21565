"""Benchmark harness: reproduces the paper's evaluation (Figs. 7-10).

- :mod:`repro.bench.harness` -- the two-PC testbed builder and migration
  experiment runner.
- :mod:`repro.bench.scale` -- concurrent-migration and multi-space scale
  benchmarks for the fair-share link model.
- :mod:`repro.bench.reporting` -- figure-style series tables.
"""

from repro.bench.harness import (
    MigrationExperiment,
    SweepRow,
    TestbedConfig,
    build_paper_testbed,
    clone_dispatch_experiment,
    round_trip_experiment,
)
from repro.bench.reporting import format_comparison_table, format_phase_table
from repro.bench.scale import (
    ConcurrentMigrationResult,
    ScaleResult,
    concurrent_migration_experiment,
    scale_benchmark,
)

__all__ = [
    "ConcurrentMigrationResult",
    "MigrationExperiment",
    "ScaleResult",
    "SweepRow",
    "TestbedConfig",
    "build_paper_testbed",
    "clone_dispatch_experiment",
    "concurrent_migration_experiment",
    "format_comparison_table",
    "format_phase_table",
    "round_trip_experiment",
    "scale_benchmark",
]
