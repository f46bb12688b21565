"""Fig. 9: migration cost with static component binding (the baseline).

The authors' earlier system statically binds mobile agents to whole
applications: "application components including the data, logic, and user
interfaces all migrate with users.  It will decrease the performance when
the applications' size grows up."  Reported shape: the migration phase grows
linearly with file size and dominates, reaching many seconds at 7.5 MB.
"""

import pytest

from conftest import record_report
from repro.bench.harness import MigrationExperiment
from repro.bench.reporting import format_phase_table
from repro.city.params import PAPER_FILE_SIZES_MB, mb
from repro.core import BindingPolicy


@pytest.fixture(scope="module")
def static_rows(obs):
    return MigrationExperiment(observability=obs).sweep(
        PAPER_FILE_SIZES_MB, BindingPolicy.STATIC)


def test_fig9_static_sweep(benchmark, static_rows):
    rows = static_rows
    record_report("fig9_static_binding", format_phase_table(
        "Fig. 9 -- static component binding (whole app migrates)", rows))
    migrates = [r.migrate_ms for r in rows]
    totals = [r.total_ms for r in rows]
    # Migration grows monotonically and dominates the total at large sizes.
    assert all(b > a for a, b in zip(migrates, migrates[1:]))
    assert migrates[-1] / totals[-1] > 0.7
    # Multi-second totals at the top of the sweep (paper: ~8-10 s scale).
    assert totals[-1] > 5_000.0
    benchmark.pedantic(
        lambda: MigrationExperiment().run_once(mb(5.0),
                                               BindingPolicy.STATIC),
        rounds=3, iterations=1)


def test_fig9_migration_linear_in_size(benchmark, static_rows):
    """Transfer time implies ~800 ms per MB on the 10 Mbps testbed link."""
    rows = static_rows
    slopes = []
    for a, b in zip(rows, rows[1:]):
        slopes.append((b.migrate_ms - a.migrate_ms)
                      / (b.size_mb - a.size_mb))
    for slope in slopes:
        # 800 ms/MB wire time plus (de)serialization overhead per MB.
        assert 700.0 < slope < 1_300.0
    benchmark.pedantic(
        lambda: MigrationExperiment().run_once(mb(3.0),
                                               BindingPolicy.STATIC),
        rounds=3, iterations=1)


def test_fig9_bytes_grow_with_file(benchmark, static_rows):
    rows = static_rows
    byte_counts = [r.bytes_transferred for r in rows]
    assert all(b > a for a, b in zip(byte_counts, byte_counts[1:]))
    assert byte_counts[-1] - byte_counts[0] == pytest.approx(5_500_000,
                                                             rel=0.01)
    benchmark.pedantic(
        lambda: MigrationExperiment().run_once(mb(2.0),
                                               BindingPolicy.STATIC),
        rounds=3, iterations=1)
