"""Tests for the TTL-caching registry client."""

import pytest

from repro.net.kernel import EventLoop
from repro.net.simnet import Network
from repro.registry.records import ApplicationRecord
from repro.registry.registry import CachingRegistryClient, install_registry


@pytest.fixture
def rig():
    loop = EventLoop()
    net = Network(loop)
    net.create_host("reg")
    net.create_host("client")
    net.connect("reg", "client", latency_ms=5.0)
    server = install_registry(net, "reg")
    client = CachingRegistryClient(net, "client", "reg",
                                   cache_ttl_ms=10_000.0)
    server.center.register_application(
        ApplicationRecord("player", "client", ["presentation"]))
    return loop, net, server, client


def call(client, loop, operation, args):
    results = []
    client.call(operation, args, lambda r, e: results.append((r, e)))
    loop.run()
    return results[0]


def test_second_read_is_served_from_cache(rig):
    loop, net, server, client = rig
    first = call(client, loop, "components_at",
                 {"app_name": "player", "host": "client"})
    served_before = server.requests_served
    second = call(client, loop, "components_at",
                  {"app_name": "player", "host": "client"})
    assert first == second == (["presentation"], None)
    assert server.requests_served == served_before  # no second trip
    assert client.cache_hits == 1
    assert client.cache_misses == 1


def test_cached_read_is_instant(rig):
    loop, net, server, client = rig
    call(client, loop, "components_at",
         {"app_name": "player", "host": "client"})
    start = loop.now
    results = []
    client.call("components_at", {"app_name": "player", "host": "client"},
                lambda r, e: results.append(loop.now))
    loop.run()
    assert results[0] == start  # same instant, no round trip


def test_ttl_expiry_refetches(rig):
    loop, net, server, client = rig
    call(client, loop, "components_at",
         {"app_name": "player", "host": "client"})
    loop.advance(11_000.0)  # beyond the 10 s TTL
    call(client, loop, "components_at",
         {"app_name": "player", "host": "client"})
    assert client.cache_misses == 2


def test_different_args_are_different_entries(rig):
    loop, net, server, client = rig
    call(client, loop, "components_at",
         {"app_name": "player", "host": "client"})
    call(client, loop, "components_at",
         {"app_name": "player", "host": "reg"})
    assert client.cache_misses == 2
    assert client.cache_hits == 0


def test_write_invalidates_cache(rig):
    loop, net, server, client = rig
    stale = call(client, loop, "components_at",
                 {"app_name": "player", "host": "client"})
    assert stale[0] == ["presentation"]
    record = ApplicationRecord("player", "client",
                               ["presentation", "logic"])
    call(client, loop, "register_application", {"record": record.to_dict()})
    fresh = call(client, loop, "components_at",
                 {"app_name": "player", "host": "client"})
    assert fresh[0] == ["logic", "presentation"] or \
        sorted(fresh[0]) == ["logic", "presentation"]


def test_errors_are_not_cached(rig):
    loop, net, server, client = rig
    first = call(client, loop, "explode", {})
    assert first[1] is not None
    # The read set does not include "explode", so it went through as a
    # write (cache cleared); a bad *read* op also must not cache errors:
    bad = call(client, loop, "find_compatible",
               {"required_resource": "imcl:x"})  # missing 'host' arg
    assert bad[1] is not None
    again = call(client, loop, "find_compatible",
                 {"required_resource": "imcl:x"})
    assert again[1] is not None
    assert client.cache_hits == 0


def test_manual_invalidate(rig):
    loop, net, server, client = rig
    call(client, loop, "components_at",
         {"app_name": "player", "host": "client"})
    client.invalidate()
    call(client, loop, "components_at",
         {"app_name": "player", "host": "client"})
    assert client.cache_misses == 2


class TestMiddlewareWithCache:
    def test_cache_disabled_by_default(self):
        from repro.core import Deployment
        d = Deployment(seed=3)
        d.add_space("room")
        src = d.add_host("pc1", "room")
        assert not isinstance(src.registry_client, CachingRegistryClient)
