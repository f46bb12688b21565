"""Ablation A4: network sensitivity of the adaptive-binding win.

The paper's testbed is a 10 Mbps LAN.  This bench sweeps link bandwidth and
shows that adaptive binding's advantage is largest on slow links (where
shipping 7.5 MB hurts most) and shrinks -- but does not invert -- on fast
ones, since adaptive never transfers more than static.
"""

import pytest

from conftest import record_report
from repro.bench.harness import MigrationExperiment, TestbedConfig
from repro.bench.reporting import format_kv_table
from repro.city.params import BANDWIDTH_SWEEP_MBPS, mb
from repro.core import BindingPolicy


def ratio_at(bandwidth_mbps: float, size_mb: float = 7.5):
    experiment = MigrationExperiment(
        TestbedConfig(bandwidth_mbps=bandwidth_mbps))
    adaptive = experiment.run_once(mb(size_mb), BindingPolicy.ADAPTIVE)
    static = experiment.run_once(mb(size_mb), BindingPolicy.STATIC)
    return {
        "bandwidth_mbps": bandwidth_mbps,
        "adaptive_total_ms": adaptive.total_ms,
        "static_total_ms": static.total_ms,
        "static_over_adaptive": static.total_ms / adaptive.total_ms,
    }


@pytest.fixture(scope="module")
def bandwidth_rows():
    return [ratio_at(bw) for bw in BANDWIDTH_SWEEP_MBPS]


def test_a4_adaptive_wins_across_bandwidths(benchmark, bandwidth_rows):
    record_report("ablation_a4_bandwidth", format_kv_table(
        "A4 -- adaptive-vs-static total cost across link bandwidths "
        "(7.5 MB file)", bandwidth_rows))
    for row in bandwidth_rows:
        assert row["static_over_adaptive"] > 1.0
    benchmark.pedantic(lambda: ratio_at(10.0), rounds=2, iterations=1)


def test_a4_gap_shrinks_with_bandwidth(benchmark, bandwidth_rows):
    ratios = [r["static_over_adaptive"] for r in bandwidth_rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # At 1 Mbps the whole-app transfer is catastrophic...
    assert ratios[0] > 8.0
    # ... while at 100 Mbps the gap narrows considerably.
    assert ratios[-1] < 4.0
    benchmark.pedantic(lambda: ratio_at(100.0), rounds=2, iterations=1)


def test_a4_slow_link_hurts_static_more(benchmark, bandwidth_rows):
    by_bw = {r["bandwidth_mbps"]: r for r in bandwidth_rows}
    static_slowdown = (by_bw[1.0]["static_total_ms"]
                       / by_bw[100.0]["static_total_ms"])
    adaptive_slowdown = (by_bw[1.0]["adaptive_total_ms"]
                         / by_bw[100.0]["adaptive_total_ms"])
    assert static_slowdown > 3 * adaptive_slowdown
    benchmark.pedantic(lambda: ratio_at(1.0), rounds=2, iterations=1)
