"""Self-tests of the benchmark (``PYTHONPATH=src python -m pytest perf -q``).

They run the workloads at ``--scale smoke`` so the whole file takes well
under a minute.
"""

import importlib
import json
import os
import pkgutil
import sys

import pytest

import run
from layers import LAYERS, LayerTracer, layer_of_module

SMOKE = "smoke"


def _repro_modules():
    import repro
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    return names


def test_layer_map_covers_every_repro_module():
    unmapped = [name for name in _repro_modules()
                if name != "repro" and layer_of_module(name) is None]
    assert unmapped == []
    assert layer_of_module("repro.net.kernel") == "kernel"
    assert layer_of_module("repro.net.simnet") == "net"
    assert layer_of_module("repro.apps.music_player") == "core"
    assert layer_of_module("repro.simcheck.scenario") == "driver"
    assert layer_of_module("workloads") == "driver"
    assert layer_of_module("json") is None


def _attribute_snapshot():
    """Every module- and class-level attribute of every repro module."""
    snapshot = {}
    for name in _repro_modules():
        module = importlib.import_module(name)
        for attr, value in list(vars(module).items()):
            snapshot[(name, attr)] = value
            if isinstance(value, type) and \
                    value.__module__.startswith("repro"):
                for cattr, cvalue in list(vars(value).items()):
                    snapshot[(name, attr, cattr)] = cvalue
    return snapshot


def test_traced_run_restores_every_wrapped_attribute():
    before = _attribute_snapshot()
    result = run.run_child("city_day", 0, SMOKE, traced=True, out=None)
    assert result["trace"]["spans_total"] > 1000
    after = _attribute_snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_install_wraps_and_uninstall_restores():
    from repro.net.kernel import EventLoop
    from repro.net.simnet import Network
    originals = (EventLoop.__dict__["call_at"], Network.__dict__["send"])
    tracer = LayerTracer().install()
    try:
        assert EventLoop.__dict__["call_at"] is not originals[0]
        assert Network.__dict__["send"] is not originals[1]
    finally:
        tracer.uninstall()
    assert (EventLoop.__dict__["call_at"], Network.__dict__["send"]) \
        == originals
    assert not tracer.installed


@pytest.fixture(scope="module")
def smoke_pairs():
    """(untraced, traced) smoke repeats per workload, fresh processes."""
    return {w: (run._spawn(w, 0, SMOKE, False, None),
                run._spawn(w, 0, SMOKE, True, None))
            for w in run.WORKLOAD_ORDER}


@pytest.mark.parametrize("workload", run.WORKLOAD_ORDER)
def test_traced_digest_equals_untraced(smoke_pairs, workload):
    untraced, traced = smoke_pairs[workload]
    assert untraced["attempted"] > 0
    assert untraced["digest"] == traced["digest"]
    assert run.check(workload, [untraced, traced]) == []


@pytest.mark.parametrize("workload", run.WORKLOAD_ORDER)
def test_layer_self_times_sum_to_traced_wall(smoke_pairs, workload):
    traced = smoke_pairs[workload][1]
    rows = traced["trace"]["layers"]
    attributed = sum(rows[name]["self_ms"] for name in LAYERS + ("gc",))
    wall_ms = traced["run_s"] * 1000.0
    assert abs(attributed - wall_ms) <= 0.05 * wall_ms
    assert rows["unattributed"]["share"] < 0.05


def test_per_layer_metrics_complete(smoke_pairs):
    untraced, traced = smoke_pairs["city_day"]
    values = run.per_layer(traced, [untraced])
    assert list(values) == [name for name, _, _ in run.per_layer_specs()]
    assert values["kernel.events"] > 0
    assert values["core.migrations"] > 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_ORDER)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] \
        == [(n, u, b) for n, u, b, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_specs()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("before, after, better, bound, expected", [
    ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "higher", 0.1,
     "better"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", 0.1,
     "worse"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "lower", 0.1,
     "better"),
    ([100, 101, 99, 100, 100], [103, 102, 104, 103, 103], "higher", 0.1,
     "unchanged"),
    # Noisy runs that overlap: the spread exceeds the bound.
    ([60, 140, 100, 70, 130], [75, 150, 95, 90, 170], "higher", 0.1,
     "unresolved"),
    # Noisy, but every after-run beats every before-run.
    ([60, 140, 100, 70, 130], [200, 290, 240, 210, 280], "higher", 0.1,
     "better"),
    ([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], "lower", 1e-9, "unchanged"),
    ([5.0, 5.0, 5.0], [5.0000001, 5.0000001, 5.0000001], "lower", 1e-9,
     "worse"),
])
def test_compare_verdicts(before, after, better, bound, expected):
    assert run.verdict(before, after, better, bound) == expected


def test_result_line_shape():
    fake = {"workloads": {"city_day": {
        "attempted": 10, "broken": 0, "problems": [],
        "metrics": {"setup_s": {"value": 0.5, "unit": "s", "q1": 0.4,
                                "q3": 0.6, "samples": [0.5]}}}}}
    line = run.result_line(fake, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}
    assert line["correct"] is True and line["failed"] == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "city_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_percentile_and_summary():
    assert run.percentile([3, 1, 2], 50.0) == 2
    assert run.percentile([0, 10], 99.0) == pytest.approx(9.9)
    assert run.percentile([], 50.0) == 0.0
    assert run.summarize([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert run.summarize([1.0, 2.0, 3.0, 4.0, 5.0])["median"] == 3.0
