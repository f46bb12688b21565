"""Fig. 10: comparative total cost, adaptive vs static binding.

The paper's headline: adaptive binding stays near-flat (~1-1.2 s) while the
static baseline grows with file size (to ~10 s scale), so adaptive wins at
every size and the gap widens.
"""

import pytest

from conftest import record_report
from repro.bench.harness import MigrationExperiment
from repro.bench.reporting import format_comparison_table
from repro.city.params import PAPER_FILE_SIZES_MB, mb
from repro.core import BindingPolicy


@pytest.fixture(scope="module")
def sweeps(obs):
    experiment = MigrationExperiment(observability=obs)
    adaptive = experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.ADAPTIVE)
    static = experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.STATIC)
    return adaptive, static


def test_fig10_comparative_cost(benchmark, sweeps):
    adaptive, static = sweeps
    record_report("fig10_comparative", format_comparison_table(
        "Fig. 10 -- comparative total cost (adaptive vs static binding)",
        adaptive, static))
    # Adaptive wins at every file size...
    for a, s in zip(adaptive, static):
        assert s.total_ms > a.total_ms
    # ... and the win factor grows with file size.
    ratios = [s.total_ms / a.total_ms for a, s in zip(adaptive, static)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 1.5         # already a clear win at 2.0 MB
    assert ratios[-1] > 4.0        # a big win at 7.5 MB

    def one_pair():
        experiment = MigrationExperiment()
        experiment.run_once(mb(5.0), BindingPolicy.ADAPTIVE)
        experiment.run_once(mb(5.0), BindingPolicy.STATIC)

    benchmark.pedantic(one_pair, rounds=3, iterations=1)


def test_fig10_static_flatness_vs_growth(benchmark, sweeps):
    """Adaptive total is near-flat; static grows super-linearly in
    comparison across the same sweep."""
    adaptive, static = sweeps
    adaptive_growth = adaptive[-1].total_ms / adaptive[0].total_ms
    static_growth = static[-1].total_ms / static[0].total_ms
    assert adaptive_growth < 1.4
    assert static_growth > 2.0
    benchmark.pedantic(
        lambda: MigrationExperiment().run_once(mb(7.5),
                                               BindingPolicy.STATIC),
        rounds=3, iterations=1)
