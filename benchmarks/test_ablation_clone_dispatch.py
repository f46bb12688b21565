"""Ablation A1: clone-dispatch fan-out (the lecture scenario).

Clone the slide show to N overflow rooms across gateways, comparing the
paper's setup (rooms pre-equipped with presentation app + projector, MAs
carry only the slides) against naively shipping the full application.
"""

import pytest

from conftest import record_report
from repro.bench.harness import clone_dispatch_experiment
from repro.bench.reporting import format_kv_table
from repro.city.params import CLONE_FANOUTS


@pytest.fixture(scope="module")
def fanout_rows():
    rows = []
    for rooms in CLONE_FANOUTS:
        for carry_full in (False, True):
            rows.append(clone_dispatch_experiment(
                room_count=rooms, carry_full_app=carry_full))
    return rows


def test_a1_slides_only_cheaper_than_full_app(benchmark, fanout_rows):
    record_report("ablation_a1_clone_dispatch", format_kv_table(
        "A1 -- clone-dispatch fan-out: slides-only vs full app", fanout_rows))
    by_key = {(r["room_count"], r["carry_full_app"]): r for r in fanout_rows}
    for rooms in CLONE_FANOUTS:
        slides_only = by_key[(rooms, False)]
        full_app = by_key[(rooms, True)]
        assert slides_only["bytes_per_clone"] < full_app["bytes_per_clone"]
        assert slides_only["mean_clone_ms"] < full_app["mean_clone_ms"]
    benchmark.pedantic(lambda: clone_dispatch_experiment(room_count=2),
                       rounds=3, iterations=1)


def test_a1_dispatch_scales_with_rooms(benchmark, fanout_rows):
    """Total dispatch time grows with fan-out (the main room's uplink
    serializes the clones), but per-clone cost stays bounded."""
    slides = [r for r in fanout_rows if not r["carry_full_app"]]
    slides.sort(key=lambda r: r["room_count"])
    totals = [r["total_dispatch_ms"] for r in slides]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    # Sub-linear in room count: gateways parallelize the last hops.
    assert totals[-1] < totals[0] * CLONE_FANOUTS[-1]
    benchmark.pedantic(lambda: clone_dispatch_experiment(room_count=4),
                       rounds=2, iterations=1)


def test_a1_sync_reaches_all_rooms(benchmark, fanout_rows):
    """A slide flip propagates to every replica in well under a second."""
    for row in fanout_rows:
        assert row["slide_sync_ms"] < 500.0
    benchmark.pedantic(lambda: clone_dispatch_experiment(room_count=1),
                       rounds=3, iterations=1)
