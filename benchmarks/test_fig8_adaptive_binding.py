"""Fig. 8: migration cost with adaptive component binding.

Paper setup: destination has the UI but neither music data nor logic; music
files 2.0-7.5 MB over 10 Mbps.  Reported shape: suspension and migration
barely grow with file size; only resumption grows (remote stream open), and
the total increase over the whole sweep stays under ~200 ms on a ~1 s total.
"""

import pytest

from conftest import record_report
from repro.bench.harness import MigrationExperiment
from repro.bench.reporting import format_phase_table
from repro.city.params import PAPER_FILE_SIZES_MB, mb
from repro.core import BindingPolicy


@pytest.fixture(scope="module")
def adaptive_rows(obs):
    return MigrationExperiment(observability=obs).sweep(
        PAPER_FILE_SIZES_MB, BindingPolicy.ADAPTIVE)


def test_fig8_adaptive_sweep(benchmark, adaptive_rows):
    rows = adaptive_rows
    record_report("fig8_adaptive_binding", format_phase_table(
        "Fig. 8 -- adaptive component binding (dest has UI only)", rows))
    # Suspend and migrate are flat in file size (nothing bulky is wrapped).
    suspends = [r.suspend_ms for r in rows]
    migrates = [r.migrate_ms for r in rows]
    assert max(suspends) / min(suspends) < 1.15
    assert max(migrates) / min(migrates) < 1.15
    # Resume grows with file size (remote URL open) but modestly:
    resumes = [r.resume_ms for r in rows]
    assert all(b >= a for a, b in zip(resumes, resumes[1:]))
    assert resumes[-1] - resumes[0] < 250.0  # paper: "less than 200 ms"
    # Totals sit at the ~1 s scale across the whole sweep.
    totals = [r.total_ms for r in rows]
    assert 700.0 < min(totals) and max(totals) < 1_600.0
    benchmark.pedantic(
        lambda: MigrationExperiment().run_once(mb(5.0),
                                               BindingPolicy.ADAPTIVE),
        rounds=3, iterations=1)


def test_fig8_total_cost_series(benchmark, adaptive_rows):
    """The paper's companion 'Total Cost' series (sum of the phases)."""
    rows = adaptive_rows
    lines = ["Fig. 8 (inset) -- adaptive binding total cost",
             "---------------------------------------------",
             f"{'File Size':>10} {'Sum':>10}"]
    for row in rows:
        lines.append(f"{row.size_mb:>9.1f}M {row.total_ms:>9.0f}ms")
    record_report("fig8_total_cost", "\n".join(lines))
    totals = [r.total_ms for r in rows]
    assert all(b >= a for a, b in zip(totals, totals[1:]))
    # Growth over the sweep is bounded (paper: ~950 -> ~1200 ms).
    assert totals[-1] / totals[0] < 1.4
    benchmark.pedantic(
        lambda: MigrationExperiment().run_once(mb(2.0),
                                               BindingPolicy.ADAPTIVE),
        rounds=3, iterations=1)


def test_fig8_bytes_on_wire_flat(benchmark, adaptive_rows):
    """Adaptive binding wraps the same cargo regardless of file size."""
    rows = adaptive_rows
    byte_counts = {r.bytes_transferred for r in rows}
    assert max(byte_counts) - min(byte_counts) < 1_024
    benchmark.pedantic(
        lambda: MigrationExperiment().run_once(mb(7.5),
                                               BindingPolicy.ADAPTIVE),
        rounds=3, iterations=1)
