"""Ablation A7: predictor-driven pre-staging.

Extension of the paper's §3.4 prediction hook: once the Markov predictor is
confident about the user's next space, the middleware pushes the missing
components there ahead of time.  The later real migration then wraps only
the state snapshot.  This bench compares cold vs pre-staged migration
latency across file sizes.
"""

import pytest

from conftest import record_report
from repro.apps.music_player import MusicPlayerApp
from repro.bench.reporting import format_kv_table
from repro.city.params import PAPER_FILE_SIZES_MB, mb
from repro.core import Deployment, UserProfile


def run_migration(track_bytes: int, prestage: bool):
    d = Deployment(seed=31)
    d.add_space("office")
    d.add_space("lab")
    office_pc = d.add_host("office-pc", "office")
    lab_pc = d.add_host("lab-pc", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    app = MusicPlayerApp.build(
        "player", "alice", track_bytes=track_bytes,
        user_profile=UserProfile("alice",
                                 preferences={"follow_user": False}))
    office_pc.launch_application(app)
    d.run_all()
    if prestage:
        staged = office_pc.prestage("player", "lab-pc")
        d.run_all()
        assert staged.completed
    outcome = office_pc.migrate("player", "lab-pc")
    d.run_all()
    assert outcome.completed, outcome.failure_reason
    return outcome


@pytest.fixture(scope="module")
def prestage_rows():
    rows = []
    for size_mb in PAPER_FILE_SIZES_MB:
        cold = run_migration(mb(size_mb), prestage=False)
        warm = run_migration(mb(size_mb), prestage=True)
        rows.append({
            "size_mb": size_mb,
            "cold_total_ms": cold.total_ms,
            "prestaged_total_ms": warm.total_ms,
            "saved_ms": cold.total_ms - warm.total_ms,
            "cold_wire_bytes": cold.bytes_transferred,
            "prestaged_wire_bytes": warm.bytes_transferred,
        })
    return rows


def test_a7_prestaging_cuts_migration_latency(benchmark, prestage_rows):
    record_report("ablation_a7_prestaging", format_kv_table(
        "A7 -- cold vs pre-staged follow-me migration", prestage_rows))
    for row in prestage_rows:
        assert row["prestaged_total_ms"] < row["cold_total_ms"]
        assert row["prestaged_wire_bytes"] < row["cold_wire_bytes"]
    benchmark.pedantic(lambda: run_migration(mb(5.0), prestage=True),
                       rounds=2, iterations=1)


def test_a7_savings_are_size_independent(benchmark, prestage_rows):
    """Pre-staging removes the whole component-transfer term -- a constant
    saving across file sizes (the residual growth in both columns is the
    remote-stream open, same as Fig. 8's resume phase)."""
    savings = [r["saved_ms"] for r in prestage_rows]
    assert max(savings) - min(savings) < 50.0
    assert min(savings) > 300.0
    benchmark.pedantic(lambda: run_migration(mb(2.0), prestage=True),
                       rounds=2, iterations=1)
