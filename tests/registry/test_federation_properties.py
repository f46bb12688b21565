"""Property-based invariants of the federated registry (hypothesis).

Two families, matching the federation's load-bearing guarantees:

* **routing reachability** -- every operation the RPC surface admits
  routes to a live host that can actually serve it (a shard node owning
  the hinted space, or an aggregator for global fan-outs);
* **cache coherence** -- a cached read is never served across an
  invalidating registry write or app-lifecycle event, for any TTL.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.context.model import TOPIC_APP, ContextEvent
from repro.core import Deployment
from repro.registry.federation import INVALIDATING_EVENTS

SPACES = {"lab": ["h1", "h2"], "annex": ["h3"]}
HOSTS = [host for hosts in SPACES.values() for host in hosts]
APPS = ["music", "notes"]
RESOURCES = ["imcl:res-0", "imcl:res-1"]


def build(cache_ttl_ms: float = 2_000.0) -> Deployment:
    d = Deployment(seed=9)
    d.enable_federated_registry(cache_ttl_ms=cache_ttl_ms)
    for space in SPACES:
        d.add_space(space)
    d.install_registry("lab", host_name="reg")
    for space, hosts in SPACES.items():
        for host in hosts:
            d.add_host(host, space)
    for space in SPACES:
        d.add_gateway(f"gw-{space}", space)
    d.connect_spaces("lab", "annex")
    return d


def call(d: Deployment, host: str, operation: str, args: dict):
    replies = []
    d.federation.client_for(host).call(
        operation, dict(args), lambda r, e: replies.append((r, e)))
    d.run_all()
    assert replies, f"{operation} never answered"
    result, error = replies[0]
    assert error is None, f"{operation} failed: {error}"
    return result


def register_app(d: Deployment, app: str, host: str, components):
    call(d, host, "register_application",
         {"record": {"app_name": app, "host": host,
                     "components": list(components)}})


@st.composite
def operations(draw):
    """One (operation, args) pair over the fixed host/app universe."""
    operation = draw(st.sampled_from([
        "register_application", "deregister_application",
        "register_resource", "deregister_resource",
        "lookup_application", "lookup_application_global",
        "components_at", "application_hosts", "resources_on",
        "find_compatible", "rebind_map", "semantic_query",
        "describe_resources",
    ]))
    host = draw(st.sampled_from(HOSTS))
    app = draw(st.sampled_from(APPS))
    resource = draw(st.sampled_from(RESOURCES))
    if operation == "register_application":
        return operation, {"record": {"app_name": app, "host": host,
                                      "components": ["logic"]}}
    if operation == "deregister_application":
        return operation, {"app_name": app, "host": host}
    if operation == "register_resource":
        return operation, {"record": {"resource_id": resource, "host": host,
                                      "classes": ["imcl:Printer"],
                                      "properties": {}}}
    if operation == "deregister_resource":
        return operation, {"resource_id": resource}
    if operation == "lookup_application":
        return operation, {"app_name": app, "host": host}
    if operation == "lookup_application_global":
        return "lookup_application", {"app_name": app}
    if operation == "components_at":
        return operation, {"app_name": app, "host": host}
    if operation == "application_hosts":
        return operation, {"app_name": app}
    if operation == "resources_on":
        return operation, {"host": host}
    if operation == "find_compatible":
        return operation, {"required_resource": resource, "host": host}
    if operation == "rebind_map":
        return operation, {"required": [resource], "host": host}
    if operation == "semantic_query":
        return operation, {"patterns": ["(?r rdf:type imcl:Printer)"]}
    return operation, {"resource_ids": [resource]}


class TestRoutingReachability:
    @given(caller=st.sampled_from(HOSTS), op=operations())
    @settings(max_examples=40)
    def test_every_operation_routes_to_a_host_that_can_serve_it(
            self, caller, op):
        operation, args = op
        d = build()
        fed = d.federation
        target, space = fed.route(caller, operation, args)
        assert target is not None
        assert d.network.has_host(target)
        if space is not None:
            # Shard-scoped: the target node must own the hinted shard.
            assert space in fed.nodes[target].shards
        else:
            # Global: the target must be able to fan out and merge.
            node = fed.nodes[target]
            assert node.aggregator or target == fed.fallback_host
            assert fed.fanout_entries(), "no shards to fan out over"

    @given(caller=st.sampled_from(HOSTS), op=operations())
    @settings(max_examples=15)
    def test_routed_calls_complete(self, caller, op):
        """Routing is not just well-formed on paper: the call round-trips
        through the simulated network and answers."""
        operation, args = op
        d = build()
        call(d, caller, operation, args)


class TestCacheCoherence:
    @given(ttl=st.floats(min_value=500.0, max_value=20_000.0),
           seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=20)
    def test_read_after_write_returns_the_new_truth(self, ttl, seed):
        rng = random.Random(seed)
        d = build(cache_ttl_ms=ttl)
        client = d.federation.client_for("h2")
        register_app(d, "music", "h1", ["logic"])
        first = call(d, "h2", "components_at",
                     {"app_name": "music", "host": "h1"})
        assert first == ["logic"]
        # Interleave cached re-reads with conflicting writes; each read
        # must reflect the latest write no matter how fresh the TTL is.
        components = ["logic"]
        for _ in range(4):
            if rng.random() < 0.7:
                components = sorted(rng.sample(
                    ["logic", "interface", "data"], rng.randint(1, 3)))
                register_app(d, "music", "h1", components)
            observed = call(d, "h2", "components_at",
                            {"app_name": "music", "host": "h1"})
            assert observed == components, \
                f"stale read: {observed} after writing {components}"
        assert client.cache_misses >= 1

    @given(event=st.sampled_from(sorted(INVALIDATING_EVENTS)),
           ttl=st.floats(min_value=1_000.0, max_value=30_000.0))
    @settings(max_examples=15)
    def test_lifecycle_event_invalidates_within_ttl(self, event, ttl):
        """The PR 5 prestaging seam: an app-lifecycle event must bust the
        cache even though no registry write happened -- a TTL-fresh entry
        alone is not enough to serve."""
        d = build(cache_ttl_ms=ttl)
        client = d.federation.client_for("h2")
        register_app(d, "music", "h1", ["logic"])
        call(d, "h2", "components_at", {"app_name": "music", "host": "h1"})
        call(d, "h2", "components_at", {"app_name": "music", "host": "h1"})
        assert client.cache_hits >= 1  # the cache does serve inside TTL
        hits_before = client.cache_hits
        d.bus.publish(ContextEvent(
            topic=TOPIC_APP, subject="music",
            attributes={"event": event}, timestamp=d.loop.now,
            source="test"))
        d.run_all()  # bus delivery is async; invalidate on delivery
        observed = call(d, "h2", "components_at",
                        {"app_name": "music", "host": "h1"})
        assert observed == ["logic"]  # correct answer, freshly fetched
        assert client.cache_hits == hits_before, \
            f"cache served across a {event!r} lifecycle event"

    @given(ttl=st.floats(min_value=1_000.0, max_value=30_000.0))
    @settings(max_examples=10)
    def test_unrelated_apps_keep_their_cache_entries(self, ttl):
        """Invalidation is precise: writing app A must not evict app B's
        token (B's records did not change)."""
        d = build(cache_ttl_ms=ttl)
        client = d.federation.client_for("h2")
        register_app(d, "music", "h1", ["logic"])
        register_app(d, "notes", "h3", ["data"])
        call(d, "h2", "components_at", {"app_name": "notes", "host": "h3"})
        register_app(d, "music", "h1", ["logic", "data"])  # unrelated write
        hits_before = client.cache_hits
        observed = call(d, "h2", "components_at",
                        {"app_name": "notes", "host": "h3"})
        assert observed == ["data"]
        assert client.cache_hits == hits_before + 1
