"""Ablation A6: the Fig. 1 mobility matrix -- intra- vs inter-space cost.

"Migration across the space boundary requires additional gateway support."
This bench times the same follow-me migration within one smart space and
across two gatewayed spaces, and clone-dispatch likewise, quantifying the
gateway tax for both binding policies.
"""

import pytest

from conftest import record_report
from repro.bench.harness import MigrationExperiment, TestbedConfig
from repro.bench.reporting import format_kv_table
from repro.city.params import mb
from repro.core import BindingPolicy, MigrationKind


def run_cell(kind: MigrationKind, policy: BindingPolicy, gateway: bool,
             size_mb: float = 5.0):
    experiment = MigrationExperiment(
        TestbedConfig(gateway=gateway, gateway_delay_ms=10.0))
    outcome = experiment.run_once(mb(size_mb), policy, kind=kind)
    return outcome.total_ms


@pytest.fixture(scope="module")
def matrix_rows():
    rows = []
    for kind in (MigrationKind.FOLLOW_ME, MigrationKind.CLONE_DISPATCH):
        for gateway in (False, True):
            rows.append({
                "mode": kind.value,
                "domain": "inter-space" if gateway else "intra-space",
                "adaptive_ms": run_cell(kind, BindingPolicy.ADAPTIVE,
                                        gateway),
                "static_ms": run_cell(kind, BindingPolicy.STATIC, gateway),
            })
    return rows


def test_a6_full_mobility_matrix(benchmark, matrix_rows):
    record_report("ablation_a6_interspace", format_kv_table(
        "A6 -- Fig. 1 mobility matrix: total migration cost (5.0 MB file)",
        matrix_rows))
    assert len(matrix_rows) == 4  # all four Fig. 1 cells exercised
    benchmark.pedantic(
        lambda: run_cell(MigrationKind.FOLLOW_ME, BindingPolicy.ADAPTIVE,
                         gateway=True),
        rounds=2, iterations=1)


def test_a6_gateway_adds_cost(benchmark, matrix_rows):
    by_key = {(r["mode"], r["domain"]): r for r in matrix_rows}
    for mode in ("follow-me", "clone-dispatch"):
        intra = by_key[(mode, "intra-space")]
        inter = by_key[(mode, "inter-space")]
        assert inter["adaptive_ms"] > intra["adaptive_ms"]
        assert inter["static_ms"] > intra["static_ms"]
    benchmark.pedantic(
        lambda: run_cell(MigrationKind.FOLLOW_ME, BindingPolicy.ADAPTIVE,
                         gateway=False),
        rounds=2, iterations=1)


def test_a6_adaptive_wins_in_every_cell(benchmark, matrix_rows):
    for row in matrix_rows:
        assert row["static_ms"] > row["adaptive_ms"]
    benchmark.pedantic(
        lambda: run_cell(MigrationKind.CLONE_DISPATCH,
                         BindingPolicy.ADAPTIVE, gateway=True),
        rounds=2, iterations=1)
