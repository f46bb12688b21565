"""The paper's result (§5, Figs. 7-10) as tier-1 assertions.

All times are simulated ms on the reproduced testbed: two hosts, a
10 Mbps link, a destination holding the UI but neither data nor logic,
and unsynchronized clocks.  Each test asserts the claims of one
EXPERIMENTS.md section in the paper's terms; the exact numbers those
shapes leave free are pinned by the ``paper_sweep`` row of
``tests/integration/test_pinned_digests.py``.
"""

import pytest

from repro.bench.harness import MigrationExperiment, round_trip_experiment
from repro.city.params import PAPER_FILE_SIZES_MB
from repro.core import BindingPolicy


@pytest.fixture(scope="module")
def sweeps():
    """Both binding policies over the paper's six file sizes, run once."""
    experiment = MigrationExperiment()
    return (experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.ADAPTIVE),
            experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.STATIC))


def test_fig7_round_trip_cancels_clock_skew():
    """T2@H2 - T1@H1 + T4@H1 - T3@H2 equals the true round trip at any
    constant skew, while one-way readings on local clocks are off by it."""
    corrected = []
    for skew_ms in (-50_000.0, 0.0, 12_345.0, 600_000.0):
        r = round_trip_experiment(size_mb=2.0, skew_ms=skew_ms)
        assert r["correction_error_ms"] < 1e-3
        corrected.append(r["corrected_round_trip_ms"])
    assert max(corrected) - min(corrected) < 1e-3  # skew-invariant
    r = round_trip_experiment(size_mb=5.0, skew_ms=12_345.0)
    assert r["correction_error_ms"] < 1e-3
    assert abs(r["one_way_out_local_ms"]
               - r["true_round_trip_ms"] / 2) > 10_000
    assert r["one_way_back_local_ms"] < 0  # the return trip reads negative


def test_fig8_adaptive_binding(sweeps):
    """Suspend, migrate and wire bytes stay flat in file size (the wrapped
    cargo is size-independent); only resume grows, opening the remote
    stream, and by under 200 ms from 2.0 to 7.5 MB."""
    adaptive, _ = sweeps
    suspends = [r.suspend_ms for r in adaptive]
    migrates = [r.migrate_ms for r in adaptive]
    assert max(suspends) / min(suspends) < 1.15
    assert max(migrates) / min(migrates) < 1.15
    byte_counts = [r.bytes_transferred for r in adaptive]
    assert max(byte_counts) - min(byte_counts) < 1_024
    resumes = [r.resume_ms for r in adaptive]
    assert resumes == sorted(resumes)
    assert resumes[-1] - resumes[0] < 200.0  # paper: "less than 200 ms"
    # The Total Cost series sits at the ~1 s scale and grows boundedly.
    totals = [r.total_ms for r in adaptive]
    assert totals == sorted(totals)
    assert 700.0 < min(totals) and max(totals) < 1_600.0
    assert totals[-1] / totals[0] < 1.4


def test_fig9_static_binding(sweeps):
    """The whole app rides the agent: migrate grows linearly with file
    size (~800 ms/MB of wire time plus (de)serialization) and dominates
    the total; suspend and resume stay flat."""
    _, static = sweeps
    migrates = [r.migrate_ms for r in static]
    totals = [r.total_ms for r in static]
    assert all(b > a for a, b in zip(migrates, migrates[1:]))
    slopes = [(b.migrate_ms - a.migrate_ms) / (b.size_mb - a.size_mb)
              for a, b in zip(static, static[1:])]
    assert all(700.0 < slope < 1_300.0 for slope in slopes)
    assert migrates[-1] / totals[-1] > 0.95
    assert totals[-1] > 5_000.0
    for phase in ("suspend_ms", "resume_ms"):
        values = [getattr(r, phase) for r in static]
        assert max(values) / min(values) < 1.15
    byte_counts = [r.bytes_transferred for r in static]
    assert all(b > a for a, b in zip(byte_counts, byte_counts[1:]))
    assert byte_counts[-1] - byte_counts[0] == pytest.approx(5_500_000,
                                                             rel=0.01)


def test_fig10_comparative_cost(sweeps):
    """Adaptive wins at every size and the win widens: static/adaptive
    rises strictly from 3.4x at 2.0 MB to 8.0x at 7.5 MB, adaptive staying
    near-flat while static grows."""
    adaptive, static = sweeps
    ratios = [s.total_ms / a.total_ms for a, s in zip(adaptive, static)]
    assert all(ratio > 1.0 for ratio in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert (round(ratios[0], 1), round(ratios[-1], 1)) == (3.4, 8.0)
    assert adaptive[-1].total_ms / adaptive[0].total_ms < 1.4
    assert static[-1].total_ms / static[0].total_ms > 2.0
