"""Pinned simulation digests: fail when a change moves simulated behaviour.

Each row runs one standing scenario under ``Observability(trace=False)``
and compares :func:`repro.simcheck.behaviour_digest` of the hub (and of
the row's deployment, where the runner keeps one) against the value
pinned in :data:`PINNED`.  Wall-clock measurement lives in
``perf/run.py``; this table only guards *what* the simulator does.

An intended behaviour change re-pins by pasting the digest the failing
row prints into :data:`PINNED`.
"""

from typing import Any, Callable, Dict, Tuple

import pytest

from repro.obs import Observability
from repro.simcheck import behaviour_digest

PINNED: Dict[str, str] = {
    "scale":
        "77be8fd3ecf7ea51d375debbf9d297e20b0210ce099c547ccece976275a97d83",
    "transfer_window":
        "e6ce2dcc1b43b1097b81d27dcc72cd65f38f74aec6bd00917b5a8315a60614c5",
    "workload_day":
        "4ed5441fc73b17510380380941466520634d00cf377fb3b541be1d8a63b5559c",
    "registry":
        "db92b07a274fc8c110e2966dd69fe7938293fc9eb8d47298f9bd304eaa3c7fd9",
    "registry_flat":
        "fe77ca501c216b4ffb8e0238b2fb9f6340b4cbb3a6a1b015e1abe3ff0959c855",
    # Smoke tier (40 spaces / 300 users): the quick tier costs ~20 s.
    "city":
        "b0e60e1d1a17f4b01358dd86202b87ba9e00d3fe1895283c210fad68389a3e2f",
    "paper_sweep":
        "e7d255d66256e9508d2d3a78327dcaa0a1c5d0d96c296976ec19bb6a40940d8f",
}


def _observed() -> Observability:
    return Observability(trace=False)


# -- scenario runners ------------------------------------------------------
#
# Each runner returns ``{pinned key: digest}`` for the runs it made and
# asserts the scenario's own result floors along the way.


def _run_scale() -> Dict[str, str]:
    from repro.bench.scale import scale_benchmark

    obs = _observed()
    scale_benchmark(spaces=10, hosts_per_space=5, apps_per_host=4, legs=40,
                    admission_limit=8, payload_bytes=60_000, seed=21,
                    deadline_ms=120_000.0, prestage_fraction=0.25,
                    observability=obs)
    return {"scale": behaviour_digest(obs)}


def _run_paper_sweep() -> Dict[str, str]:
    """Figs. 8-10: both binding policies over the paper's six file sizes.

    ``tests/bench/test_figures.py`` asserts the shapes; this row pins the
    exact phase timestamps and wire bytes behind them.
    """
    from repro.bench.harness import MigrationExperiment
    from repro.city.params import PAPER_FILE_SIZES_MB
    from repro.core import BindingPolicy

    obs = _observed()
    experiment = MigrationExperiment(observability=obs)
    for policy in (BindingPolicy.ADAPTIVE, BindingPolicy.STATIC):
        experiment.sweep(PAPER_FILE_SIZES_MB, policy)
    return {"paper_sweep": behaviour_digest(obs)}


def _run_transfer_window() -> Dict[str, str]:
    from repro.bench.harness import transfer_window_experiment

    obs = _observed()
    transfer_window_experiment(windows=(1, 2, 4, 8), payload_bytes=1_000_000,
                               chunk_bytes=65_536, latency_ms=40.0,
                               bandwidth_mbps=10.0, seed=5,
                               observability=obs)
    return {"transfer_window": behaviour_digest(obs)}


def _run_workload_day() -> Dict[str, str]:
    """The only driver of the context-driven ``announce_location`` path."""
    from tests.integration.building import run_building_day

    obs = _observed()
    deployment = run_building_day(obs)
    return {"workload_day": behaviour_digest(obs, deployment)}


def _swallow_registry_result(result, error) -> None:
    """Sink for the sweep's registry reads (latency is the measurement)."""


def _registry_sweep(federated: bool) -> Tuple[Observability, Any]:
    """One city lookup storm against a flat or a federated registry.

    The city is built with every commuter's apps launched at home, then
    replays a deterministic read sweep: per app, ``passes`` repeats of a
    ``components_at`` (every ``global_every``-th app an
    ``application_hosts`` fan-out instead), spaced so the flat center
    stays below its service capacity -- the comparison measures
    architecture, not a melted queue.
    """
    from repro.city import CityConfig, CityWorkload

    passes, spacing_ms, repeat_gap_ms = 3, 8.0, 100.0
    global_every = 100
    obs = _observed()
    config = CityConfig.for_tier("quick", seed=11,
                                 federated_registry=federated)
    workload = CityWorkload(config, observability=obs)
    deployment = workload.build()
    deployment.run_all()
    loop = deployment.loop
    t0 = loop.now + 10.0
    for i, (app_name, host) in enumerate(sorted(workload.app_host.items())):
        client = deployment.middleware(host).registry_client
        if i % global_every == 0:
            operation = "application_hosts"
            args: Dict[str, Any] = {"app_name": app_name}
        else:
            operation = "components_at"
            args = {"app_name": app_name, "host": host}
        base = t0 + i * spacing_ms
        for repeat in range(passes):
            loop.call_at(base + repeat * repeat_gap_ms, client.call,
                         operation, dict(args), _swallow_registry_result)
    deployment.run_all()
    return obs, deployment


def _registry_stats(obs) -> Dict[str, float]:
    (latency,) = [h for h in obs.metrics.histograms()
                  if h.name == "registry.lookup.latency_ms" and h.values]
    counts: Dict[str, float] = {}
    for counter in obs.metrics.counters():
        counts[counter.name] = counts.get(counter.name, 0) + counter.value
    hits = counts.get("registry.cache.hit", 0)
    misses = counts.get("registry.cache.miss", 0)
    return {
        "p99_ms": latency.percentile(99.0),
        "messages": counts.get("registry.messages", 0),
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


def _run_registry() -> Dict[str, str]:
    """Flat center vs federated shards under one lookup storm."""
    flat_obs, flat_deployment = _registry_sweep(federated=False)
    fed_obs, fed_deployment = _registry_sweep(federated=True)
    flat, fed = _registry_stats(flat_obs), _registry_stats(fed_obs)
    assert fed["p99_ms"] > 0 and flat["p99_ms"] / fed["p99_ms"] > 1.0
    assert flat["messages"] / fed["messages"] > 1.0
    assert fed_deployment.federation.stats()["registry_shards"] > 1
    assert fed["cache_hit_rate"] > 0
    return {"registry": behaviour_digest(fed_obs, fed_deployment),
            "registry_flat": behaviour_digest(flat_obs, flat_deployment)}


def _run_city() -> Dict[str, str]:
    """One commuter day at the smoke tier.

    Same-seed determinism and the SLO block of this day are checked in
    ``tests/city/test_cli.py``.
    """
    from repro.city import CityConfig, CityWorkload

    obs = _observed()
    workload = CityWorkload(CityConfig.for_tier("smoke", seed=11),
                            observability=obs)
    workload.run()
    return {"city": behaviour_digest(obs, workload.deployment)}


RUNNERS: Dict[str, Callable[[], Dict[str, str]]] = {
    "scale": _run_scale,
    "transfer_window": _run_transfer_window,
    "workload_day": _run_workload_day,
    "registry": _run_registry,
    "city": _run_city,
    "paper_sweep": _run_paper_sweep,
}


@pytest.mark.parametrize("scenario", list(RUNNERS))
def test_pinned_digest(scenario):
    moved = {key: digest for key, digest in RUNNERS[scenario]().items()
             if digest != PINNED[key]}
    assert not moved, (
        "simulated behaviour changed; if intended, re-pin with\n"
        + "\n".join(f"    {key!r}: {digest!r}," for key, digest
                     in moved.items()))
