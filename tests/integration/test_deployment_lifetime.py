"""A finished deployment is garbage.

The registry's client and center lookup tables live on the ``Network``
they describe, so nothing at module or class scope keeps a dropped
``Deployment`` (or its network) alive.  Each test builds inside a helper
so the only references left behind are the weak ones it returns.
"""

import gc
import weakref

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, MiddlewareConfig
from repro.registry.federation import FederatedRegistryClient
from repro.registry.registry import CachingRegistryClient, RegistryClient
from repro.simcheck.scenario import build_deployment, generate_scenario


def _migrate_once(registry: str):
    """Build a two-host deployment, move one app, return weak refs."""
    config = (MiddlewareConfig(registry_cache_ttl_ms=60_000.0)
              if registry == "caching" else None)
    d = Deployment(seed=3, config=config)
    if registry == "federated":
        d.enable_federated_registry()
    d.add_space("room")
    d.install_registry("room", host_name="reg")
    src = d.add_host("pc1", "room")
    d.add_host("pc2", "room")
    expected = {"flat": RegistryClient, "caching": CachingRegistryClient,
                "federated": FederatedRegistryClient}[registry]
    assert type(src.registry_client) is expected
    src.launch_application(
        MusicPlayerApp.build("player", "alice", track_bytes=100_000))
    d.run_all()
    outcome = src.migrate("player", "pc2")
    d.run_all()
    assert outcome.completed
    return weakref.ref(d), weakref.ref(d.network)


@pytest.mark.parametrize("registry", ["flat", "caching", "federated"])
def test_dropped_deployment_is_collected(registry):
    deployment_ref, network_ref = _migrate_once(registry)
    gc.collect()
    assert deployment_ref() is None
    assert network_ref() is None


def test_scenario_loop_leaves_no_live_network():
    networks = []
    for seed in range(20):
        deployment = build_deployment(generate_scenario(seed))
        deployment.run_all()
        networks.append(weakref.ref(deployment.network))
    del deployment
    gc.collect()
    assert [ref() for ref in networks] == [None] * 20
