"""Two live deployments never cross registry traffic.

Registry clients and centers are looked up by host name in tables that
belong to the ``Network``.  Both deployments below reuse the same host
names, so a process-wide table keyed by host name alone would hand one
deployment's response (or local center) to the other.
"""

from repro.core import Deployment
from repro.registry.records import ApplicationRecord
from repro.registry.registry import install_registry


def run_interleaved(*deployments):
    """Alternate single events between the deployments until all idle."""
    busy = True
    while busy:
        busy = False
        for d in deployments:
            busy = d.loop.step() or busy


def flat(tag: str) -> Deployment:
    """pc1 hosts the center and a colocated middleware client; "mirror"
    is a second server the client can reach over the network."""
    d = Deployment(seed=1)
    d.add_space("room")
    d.add_host("pc1", "room")
    d.topology.add_host("mirror", "room")
    mirror = install_registry(d.network, "mirror")
    d.registry_server.center.register_application(
        ApplicationRecord("player", "pc1", [f"{tag}-local"]))
    mirror.center.register_application(
        ApplicationRecord("player", "pc1", [f"{tag}-mirror"]))
    return d


def federated() -> Deployment:
    d = Deployment(seed=1)
    d.enable_federated_registry()
    for space in ("lab", "annex"):
        d.add_space(space)
    d.install_registry("lab", host_name="reg")
    d.add_host("h1", "lab")
    d.add_host("h3", "annex")
    for space in ("lab", "annex"):
        d.add_gateway(f"gw-{space}", space)
    d.connect_spaces("lab", "annex")
    return d


def test_flat_responses_and_local_centers_stay_per_network():
    a, b = flat("a"), flat("b")
    replies = {}
    args = {"app_name": "player", "host": "pc1"}
    for tag, d in (("a", a), ("b", b)):
        client = d.middleware("pc1").registry_client
        assert client.host_name == client.server_host == "pc1"
        client.call("components_at", dict(args),
                    lambda r, e, t=tag: replies.__setitem__((t, "local"),
                                                            (r, e)))
    for tag, d in (("a", a), ("b", b)):
        # The response lands on pc1, whose registry handler is the
        # center's server; it must reach this network's pc1 client.
        d.middleware("pc1").registry_client.call(
            "components_at", dict(args),
            lambda r, e, t=tag: replies.__setitem__((t, "remote"), (r, e)),
            server="mirror")
    run_interleaved(a, b)
    assert replies == {
        ("a", "local"): (["a-local"], None),
        ("b", "local"): (["b-local"], None),
        ("a", "remote"): (["a-mirror"], None),
        ("b", "remote"): (["b-mirror"], None),
    }


def test_federated_responses_stay_per_network():
    a, b = federated(), federated()
    deployments = {"a": a, "b": b}
    writes = {}
    for tag, d in deployments.items():
        # "reg" runs the fallback federation node; its colocated client
        # reaches the annex shard on gw-annex over the network, and the
        # lab shard's own host serves its client locally.
        for client_host, app_host in (("reg", "h3"), ("gw-lab", "h1")):
            record = {"app_name": "player", "host": app_host,
                      "components": [f"{tag}-{app_host}"]}
            d.federation.client_for(client_host).call(
                "register_application", {"record": record},
                lambda r, e, k=(tag, app_host): writes.__setitem__(k, e))
    run_interleaved(a, b)
    assert writes == {(t, h): None for t in "ab" for h in ("h3", "h1")}

    reads = {}
    for tag, d in deployments.items():
        for client_host, app_host in (("reg", "h3"), ("gw-lab", "h1")):
            d.federation.client_for(client_host).call(
                "components_at", {"app_name": "player", "host": app_host},
                lambda r, e, k=(tag, app_host): reads.__setitem__(k, (r, e)))
    run_interleaved(a, b)
    assert reads == {(t, h): ([f"{t}-{h}"], None)
                     for t in "ab" for h in ("h3", "h1")}
    for d in deployments.values():
        assert d.network.registry_clients["reg"] is \
            d.federation.client_for("reg")
