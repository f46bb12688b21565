"""Tests for the evaluation harness itself."""

import pytest

from repro.bench.harness import (
    MigrationExperiment,
    TestbedConfig,
    build_paper_testbed,
    clone_dispatch_experiment,
    round_trip_experiment,
)
from repro.bench.reporting import format_comparison_table, format_phase_table
from repro.city.params import PAPER_FILE_SIZES_MB, mb
from repro.core import BindingPolicy


def test_mb_conversion():
    assert mb(2.0) == 2_000_000
    assert mb(7.5) == 7_500_000


def test_paper_sizes_match_figure_axis():
    assert PAPER_FILE_SIZES_MB == (2.0, 3.0, 4.3, 5.6, 6.5, 7.5)


class TestTestbed:
    def test_default_testbed_matches_paper(self):
        d, source, destination = build_paper_testbed()
        link = d.network.link_between("host1", "host2")
        assert link.bandwidth_mbps == 10.0
        # Destination has a partial install: UI only.
        partial = destination.application("player")
        assert partial.component_kinds() == ["presentation"]
        # Clocks are not synchronized.
        assert destination.host.clock.skew_ms != 0.0

    def test_gatewayed_testbed_routes_through_gateways(self):
        d, source, destination = build_paper_testbed(
            TestbedConfig(gateway=True))
        assert d.network.route("host1", "host2") == \
            ["host1", "gw-a", "gw-b", "host2"]

    def test_destination_inventory_configurable(self):
        config = TestbedConfig(dest_has_ui=True, dest_has_logic=True,
                               dest_has_data=True)
        d, source, destination = build_paper_testbed(config)
        kinds = destination.application("player").component_kinds()
        assert kinds == ["data", "logic", "presentation"]

    def test_empty_destination(self):
        config = TestbedConfig(dest_has_ui=False)
        d, source, destination = build_paper_testbed(config)
        assert "player" not in destination.applications


class TestExperiment:
    def test_run_once_completes(self):
        outcome = MigrationExperiment().run_once(mb(2.0))
        assert outcome.completed
        assert outcome.total_ms > 0

    def test_deterministic_across_runs(self):
        a = MigrationExperiment().run_once(mb(3.0))
        b = MigrationExperiment().run_once(mb(3.0))
        assert a.phases() == b.phases()

    def test_seed_offset_changes_nothing_without_jitter(self):
        experiment = MigrationExperiment()
        a = experiment.run_once(mb(3.0), seed_offset=0)
        b = experiment.run_once(mb(3.0), seed_offset=5)
        assert a.total_ms == pytest.approx(b.total_ms)

    def test_sweep_produces_row_per_size(self):
        rows = MigrationExperiment().sweep([2.0, 3.0],
                                           BindingPolicy.ADAPTIVE)
        assert [r.size_mb for r in rows] == [2.0, 3.0]
        for row in rows:
            assert row.total_ms == pytest.approx(
                row.suspend_ms + row.migrate_ms + row.resume_ms)

    def test_round_trip_experiment_fields(self):
        result = round_trip_experiment(size_mb=2.0, skew_ms=1_000.0)
        assert result["correction_error_ms"] < 1e-3
        assert result["true_round_trip_ms"] > 0

    def test_clone_dispatch_experiment(self):
        result = clone_dispatch_experiment(room_count=2, slide_count=5)
        assert result["room_count"] == 2
        assert result["mean_clone_ms"] > 0
        assert result["slide_sync_ms"] > 0


class TestReporting:
    def test_phase_table_contains_all_rows(self):
        rows = MigrationExperiment().sweep([2.0], BindingPolicy.ADAPTIVE)
        table = format_phase_table("title", rows)
        assert "title" in table
        assert "2.0M" in table
        assert "suspend" in table

    def test_comparison_table_ratio(self):
        experiment = MigrationExperiment()
        adaptive = experiment.sweep([2.0], BindingPolicy.ADAPTIVE)
        static = experiment.sweep([2.0], BindingPolicy.STATIC)
        table = format_comparison_table("cmp", adaptive, static)
        assert "x" in table.splitlines()[-1]

    def test_comparison_table_validates_alignment(self):
        experiment = MigrationExperiment()
        adaptive = experiment.sweep([2.0], BindingPolicy.ADAPTIVE)
        static = experiment.sweep([2.0, 3.0], BindingPolicy.STATIC)
        with pytest.raises(ValueError):
            format_comparison_table("cmp", adaptive, static)


class TestJitterAndRepeats:
    def test_jitter_makes_repeats_vary(self):
        experiment = MigrationExperiment(TestbedConfig(jitter_ms=20.0))
        a = experiment.run_once(mb(2.0), seed_offset=0)
        b = experiment.run_once(mb(2.0), seed_offset=1)
        assert a.total_ms != b.total_ms

    def test_sweep_with_repeats_averages(self):
        experiment = MigrationExperiment(TestbedConfig(jitter_ms=20.0))
        rows = experiment.sweep([2.0], BindingPolicy.ADAPTIVE, repeats=5)
        assert rows[0].repeats == 5
        singles = [experiment.run_once(mb(2.0), seed_offset=r).total_ms
                   for r in range(5)]
        assert rows[0].total_ms == pytest.approx(sum(singles) / 5)

    def test_no_jitter_repeats_identical(self):
        experiment = MigrationExperiment()
        totals = {experiment.run_once(mb(2.0), seed_offset=r).total_ms
                  for r in range(3)}
        assert len(totals) == 1
