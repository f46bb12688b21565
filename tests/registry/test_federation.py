"""Unit tests for ``repro.registry.federation`` internals.

The oracle suite proves the end-to-end contract; these tests pin the
individual mechanisms -- routing/merge helpers, fan-out failure modes,
cache token plumbing, ghost classification -- including the error paths
the happy-path oracle never exercises.
"""

import pytest

from repro.context.model import TOPIC_APP, ContextEvent
from repro.core import Deployment
from repro.obs import Observability
from repro.registry.federation import (
    RegistryFederation, RegistryShard, cache_key, merge_results,
    routing_host)
from repro.registry.registry import REGISTRY_TIMEOUT_MS, RegistryError

SPACES = {"lab": ["h1", "h2"], "annex": ["h3"]}


def build(cache_ttl_ms: float = 2_000.0,
          observability: Observability = None) -> Deployment:
    if observability is not None:
        d = Deployment(seed=4, observability=observability)
    else:
        d = Deployment(seed=4)
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
    """One federated RPC run to completion; returns (result, error)."""
    replies = []
    d.federation.client_for(host).call(
        operation, dict(args), lambda r, e: replies.append((r, e)))
    d.run_all()
    assert replies, f"{operation} never answered"
    return replies[0]


def register_app(d: Deployment, app: str, host: str, components):
    result, error = call(d, host, "register_application",
                         {"record": {"app_name": app, "host": host,
                                     "components": list(components)}})
    assert error is None
    return result


# -- pure helpers ------------------------------------------------------------


class TestRoutingHost:
    def test_register_operations_route_by_record_host(self):
        args = {"record": {"app_name": "a", "host": "h7"}}
        assert routing_host("register_application", args) == "h7"
        args = {"record": {"resource_id": "r", "host": "h8"}}
        assert routing_host("register_resource", args) == "h8"

    def test_host_scoped_operations_route_by_host_arg(self):
        for operation in ("deregister_application", "components_at",
                          "resources_on", "find_compatible", "rebind_map"):
            assert routing_host(operation, {"host": "h1"}) == "h1"

    def test_lookup_application_is_global_without_a_host(self):
        assert routing_host("lookup_application", {"app_name": "a"}) is None
        assert routing_host("lookup_application",
                            {"app_name": "a", "host": "h2"}) == "h2"

    def test_inherently_global_operations(self):
        for operation, args in (
                ("application_hosts", {"app_name": "a"}),
                ("semantic_query", {"patterns": []}),
                ("describe_resources", {"resource_ids": []}),
                ("deregister_resource", {"resource_id": "r"})):
            assert routing_host(operation, args) is None


class TestMergeResults:
    def test_lookup_application_sorts_by_host(self):
        merged = merge_results("lookup_application", {}, [
            [{"host": "h3"}], [], [{"host": "h1"}, {"host": "h2"}]])
        assert [r["host"] for r in merged] == ["h1", "h2", "h3"]

    def test_application_hosts_dedups(self):
        assert merge_results("application_hosts", {},
                             [["h2"], ["h1", "h2"]]) == ["h1", "h2"]

    def test_semantic_query_dedups_full_bindings(self):
        row = {"?c": "imcl:Printer"}
        merged = merge_results("semantic_query", {},
                               [[row], [dict(row)], [{"?c": "imcl:File"}]])
        assert merged == [{"?c": "imcl:File"}, {"?c": "imcl:Printer"}]

    def test_deregister_resource_is_any(self):
        assert merge_results("deregister_resource", {}, [False, True])
        assert not merge_results("deregister_resource", {}, [False, False])

    def test_describe_resources_unions_disjoint_shards(self):
        merged = merge_results("describe_resources", {}, [
            {"imcl:b": {"classes": []}}, {"imcl:a": {"classes": []}}])
        assert list(merged) == ["imcl:a", "imcl:b"]

    def test_shard_scoped_operations_cannot_be_merged(self):
        with pytest.raises(RegistryError, match="cannot be merged"):
            merge_results("components_at", {}, [])


class TestCacheKey:
    def test_insensitive_to_argument_order(self):
        assert (cache_key("lookup_application", {"a": 1, "b": 2})
                == cache_key("lookup_application", {"b": 2, "a": 1}))

    def test_distinguishes_operations_and_args(self):
        assert (cache_key("components_at", {"host": "h1"})
                != cache_key("resources_on", {"host": "h1"}))
        assert (cache_key("resources_on", {"host": "h1"})
                != cache_key("resources_on", {"host": "h2"}))


# -- installation and routing ------------------------------------------------


class TestInstallation:
    def test_second_fallback_is_rejected(self):
        d = build()
        with pytest.raises(RegistryError, match="already has a fallback"):
            d.federation.install_fallback("h1")

    def test_shard_space_must_be_named(self):
        d = build()
        with pytest.raises(RegistryError, match="non-empty"):
            d.federation.install_shard("", "h1")

    def test_duplicate_space_shard_is_rejected(self):
        d = build()
        with pytest.raises(RegistryError, match="already has a shard"):
            d.federation.install_shard("lab", "h1")

    def test_clients_and_nodes_are_memoized(self):
        d = build()
        fed = d.federation
        assert fed.client_for("h1") is fed.client_for("h1")
        assert fed.node_for("reg") is fed.node_for("reg")
        assert fed.node_for("h1") is fed.node_for("h1")

    def test_aggregator_can_be_pinned_to_spaces_at_install(self):
        d = build()
        fed = d.federation
        fed.install_aggregator("gw-annex", spaces=["annex"])
        assert fed.aggregator_for["annex"] == "gw-annex"

    def test_fanout_entries_lead_with_the_fallback(self):
        d = build()
        entries = d.federation.fanout_entries()
        assert entries[0] == ("", "reg")
        assert {space for space, _ in entries} == {"", "lab", "annex"}

    def test_assigned_aggregator_serves_its_space_callers(self):
        d = build()
        fed = d.federation
        fed.assign_aggregator("annex", "gw-annex")
        target, space = fed.route("h3", "application_hosts",
                                  {"app_name": "a"})
        assert (target, space) == ("gw-annex", None)
        # Other spaces still use the default aggregator.
        target, _ = fed.route("h1", "application_hosts", {"app_name": "a"})
        assert target == fed.default_aggregator

    def test_unknown_host_routes_to_the_fallback_shard(self):
        d = build()
        target, space = d.federation.route(
            "h1", "components_at", {"app_name": "a", "host": "nowhere"})
        assert (target, space) == ("reg", "")
        assert d.federation.space_with_shard("nowhere") == ""

    def test_route_with_nothing_installed_has_no_target(self):
        d = Deployment(seed=5)
        fed = RegistryFederation(d)
        assert fed.route("h1", "application_hosts",
                         {"app_name": "a"}) == (None, None)
        assert fed.route("h1", "components_at",
                         {"app_name": "a", "host": "h1"}) == (None, "")


# -- serving failure modes ---------------------------------------------------


class TestServingErrors:
    def test_missing_target_fails_fast(self):
        d = build()
        client = d.federation.client_for("h1")
        replies = []
        client._send_routed("application_hosts", {"app_name": "a"},
                            None, None, lambda r, e: replies.append((r, e)))
        d.run_all()
        assert replies == [(None, "no registry target available")]

    def test_missing_shard_is_a_serve_error(self):
        d = build()
        node = d.federation.nodes["reg"]
        replies = []
        node._serve_shard("components_at", {"app_name": "a", "host": "h1"},
                          "nope", lambda r, e: replies.append((r, e)))
        assert replies[0][0] is None
        assert "no shard for space 'nope'" in replies[0][1]

    def test_empty_fanout_is_an_error(self):
        d = build()
        d.federation.fanout_entries = lambda: []
        result, error = call(d, "h1", "application_hosts", {"app_name": "a"})
        assert result is None
        assert error == "no registry shards installed"

    def test_fanout_names_the_unreachable_shard(self):
        d = build()
        register_app(d, "music", "h3", ["logic"])
        d.network.host("gw-annex").online = False
        result, error = call(d, "h1", "application_hosts",
                             {"app_name": "music"})
        assert result is None
        assert error.startswith("shard 'annex':")
        assert "unreachable" in error

    def test_fanout_times_out_on_silent_shards(self):
        """The annex shard's host crashes while it serves a sub-request,
        so its reply is never sent and nothing reports the loss: the
        aggregator gives up after the registry timeout."""
        d = build()
        aggregator = d.federation.default_aggregator
        annex = d.federation.nodes[d.federation.shard_hosts["annex"]]
        assert annex.host_name != aggregator
        serve = annex._serve

        def crash_while_serving(*args):
            d.network.host(annex.host_name).online = False
            serve(*args)

        annex._serve = crash_while_serving
        started = d.loop.now
        # A caller on the aggregator's host has no client deadline of its
        # own, so the fan-out's is the one that fires.
        result, error = call(d, aggregator, "application_hosts",
                             {"app_name": "music"})
        assert result is None
        assert error == "shard 'annex': registry shard timed out"
        assert d.loop.now - started >= REGISTRY_TIMEOUT_MS

    def test_shard_dispatch_errors_propagate(self):
        d = build()
        client = d.federation.client_for("h1")
        replies = []
        client._send_routed("bogus_operation", {}, "reg", "",
                            lambda r, e: replies.append((r, e)))
        d.run_all()
        assert replies[0][0] is None
        assert "unknown registry operation" in replies[0][1]

    def test_colocated_clients_are_served_without_a_network_trip(self):
        """A client on a shard/aggregator host uses ``serve_local``:
        no wire messages, but still asynchronous and still cached."""
        d = build()
        register_app(d, "music", "h1", ["logic"])
        aggregator = d.federation.default_aggregator
        node = d.federation.nodes[aggregator]
        served_before = node.requests_served
        result, error = call(d, aggregator, "components_at",
                             {"app_name": "music", "host": "h1"})
        assert error is None and result == ["logic"]
        result, error = call(d, aggregator, "application_hosts",
                             {"app_name": "music"})
        assert error is None and result == ["h1"]
        # Neither call arrived as a network request at the local node.
        assert node.requests_served == served_before

    def test_colocated_global_errors_surface_through_serve_local(self):
        d = build()
        aggregator = d.federation.default_aggregator
        client = d.federation.client_for(aggregator)
        replies = []
        client._send_routed("bogus_operation", {}, aggregator, None,
                            lambda r, e: replies.append((r, e)))
        d.run_all()
        assert replies[0][0] is None
        assert "unknown registry operation" in replies[0][1]

    def test_plain_clients_are_routed_by_operation(self):
        """A legacy ``RegistryClient`` pointed at a federation node gets
        its space resolved server-side from the routing host."""
        from repro.registry.registry import RegistryClient
        d = build()
        register_app(d, "music", "h1", ["logic"])
        target = d.federation.shard_hosts["lab"]
        # A bare host so the legacy client owns the protocol handler
        # (middleware hosts already route responses to their own client).
        d.network.create_host("probe")
        d.network.connect("probe", target, bandwidth_mbps=10.0,
                          latency_ms=1.0)
        legacy = RegistryClient(d.network, "probe", target)
        replies = []
        legacy.call("components_at", {"app_name": "music", "host": "h1"},
                    lambda r, e: replies.append((r, e)))
        d.run_all()
        assert replies == [(["logic"], None)]

    def test_reply_to_a_vanished_requester_is_swallowed(self):
        from repro.registry.registry import RegistryClient
        d = build()
        target = d.federation.shard_hosts["lab"]
        d.network.create_host("probe")
        d.network.connect("probe", target, bandwidth_mbps=10.0,
                          latency_ms=1.0)
        legacy = RegistryClient(d.network, "probe", target)
        replies = []
        legacy.call("resources_on", {"host": "h1"},
                    lambda r, e: replies.append((r, e)))
        d.network.host("probe").online = False  # crashes mid-request
        d.run_all()
        assert replies[0][0] is None  # the client timed out instead

    def test_failed_uniqueness_sweep_aborts_the_registration(self):
        """The dereg-then-register composition surfaces the first leg's
        error instead of registering anyway."""
        d = build()
        call(d, "h1", "register_resource",
             {"record": {"resource_id": "imcl:r1", "host": "h1",
                         "classes": ["imcl:Printer"], "properties": {}}})
        d.network.host("gw-annex").online = False
        result, error = call(d, "h1", "register_resource",
                             {"record": {"resource_id": "imcl:r2",
                                         "host": "h1",
                                         "classes": ["imcl:Printer"],
                                         "properties": {}}})
        assert result is None
        assert error.startswith("shard 'annex':")
        follow, _ = call(d, "h2", "resources_on", {"host": "h1"})
        assert [r["resource_id"] for r in follow] == ["imcl:r1"]


# -- caches and coherence state ----------------------------------------------


class TestCaches:
    def test_aggregator_cache_serves_across_clients(self):
        d = build()
        register_app(d, "music", "h1", ["logic"])
        aggregator = d.federation.nodes[d.federation.default_aggregator]
        call(d, "h1", "application_hosts", {"app_name": "music"})
        hits_before = aggregator.cache_hits
        result, error = call(d, "h2", "application_hosts",
                             {"app_name": "music"})
        assert error is None and result == ["h1"]
        assert aggregator.cache_hits == hits_before + 1

    def test_skip_token_check_serves_stale_results(self):
        """The simcheck sabotage seam really breaks coherence."""
        d = build()
        register_app(d, "music", "h1", ["logic"])
        client = d.federation.client_for("h2")
        client._skip_token_check = True
        call(d, "h2", "components_at", {"app_name": "music", "host": "h1"})
        register_app(d, "music", "h1", ["logic", "data"])
        result, error = call(d, "h2", "components_at",
                             {"app_name": "music", "host": "h1"})
        assert error is None
        assert result == ["logic"]  # stale: the write never invalidated

    def test_cache_hit_telemetry_carries_the_token(self):
        obs = Observability()
        events = []
        obs.add_hook(lambda event, payload: events.append((event, payload)))
        d = build(observability=obs)
        register_app(d, "music", "h1", ["logic"])
        call(d, "h2", "resources_on", {"host": "h1"})
        call(d, "h2", "resources_on", {"host": "h1"})
        call(d, "h2", "components_at", {"app_name": "music", "host": "h1"})
        call(d, "h2", "components_at", {"app_name": "music", "host": "h1"})
        serves = [p for e, p in events if e == "registry.cache.serve"]
        assert any("resource_gen" in p for p in serves)
        assert any(p.get("app") == "music" and "epoch" in p for p in serves)

    def test_shard_writes_emit_invalidate_events(self):
        obs = Observability()
        events = []
        obs.add_hook(lambda event, payload: events.append((event, payload)))
        d = build(observability=obs)
        register_app(d, "music", "h1", ["logic"])
        call(d, "h1", "register_resource",
             {"record": {"resource_id": "imcl:r1", "host": "h1",
                         "classes": ["imcl:Printer"], "properties": {}}})
        scopes = {p["scope"] for e, p in events
                  if e == "registry.invalidate"}
        assert scopes == {"app", "resource"}

    def test_non_invalidating_lifecycle_events_are_ignored(self):
        d = build()
        fed = d.federation
        d.bus.publish(ContextEvent(
            topic=TOPIC_APP, subject="music",
            attributes={"event": "prestaged"}, timestamp=0.0, source="t"))
        d.run_all()
        token = fed.cache_token("components_at",
                                {"app_name": "music", "host": "h1"})
        assert token[2] == 0  # the lifecycle-epoch term

    def test_disabled_invalidation_drops_the_epoch_bump(self):
        d = build()
        fed = d.federation
        fed.invalidation_disabled = True
        d.bus.publish(ContextEvent(
            topic=TOPIC_APP, subject="music",
            attributes={"event": "started"}, timestamp=0.0, source="t"))
        d.run_all()
        token = fed.cache_token("components_at",
                                {"app_name": "music", "host": "h1"})
        assert token[2] == 0  # the lifecycle-epoch term

    def test_any_resource_writes_flips_on_the_first_registration(self):
        d = build()
        assert not d.federation.any_resource_writes()
        call(d, "h1", "register_resource",
             {"record": {"resource_id": "imcl:r1", "host": "h1",
                         "classes": ["imcl:Printer"], "properties": {}}})
        assert d.federation.any_resource_writes()

    def test_cache_tokens_split_app_and_resource_reads(self):
        d = build()
        fed = d.federation
        app_token = fed.cache_token("components_at", {"app_name": "a"})
        res_token = fed.cache_token("resources_on", {"host": "h1"})
        assert app_token[0] == "app" and res_token[0] == "res"


# -- ghosts and the matching composition -------------------------------------


class TestGhosts:
    def test_locally_owned_resources_need_no_ghost(self):
        shard = RegistryShard("lab")
        shard.dispatch("register_resource",
                       {"record": {"resource_id": "imcl:mine", "host": "h1",
                                   "classes": ["imcl:Printer"],
                                   "properties": {}}})
        ghosts = shard._install_ghosts(
            {"imcl:mine": {"classes": ["imcl:Printer"],
                           "substitutable": True}})
        assert ghosts == []

    def test_ghost_marker_pins_the_substitutability_verdict(self):
        shard = RegistryShard("lab")
        ghosts = shard._install_ghosts(
            {"imcl:alien": {"classes": ["imcl:PDA"],
                            "substitutable": False}})
        assert ghosts == ["imcl:alien"]
        assert not shard.matcher.is_substitutable("imcl:alien")
        shard._remove_ghosts(ghosts)
        assert not list(shard.ontology.graph.match("imcl:alien", None, None))

    def test_describe_failure_propagates_to_the_matching_call(self):
        d = build()
        call(d, "h1", "register_resource",
             {"record": {"resource_id": "imcl:r1", "host": "h1",
                         "classes": ["imcl:Printer"], "properties": {}}})
        d.network.host("gw-annex").online = False  # breaks the global read
        result, error = call(d, "h1", "find_compatible",
                             {"required_resource": "imcl:r1", "host": "h3"})
        assert result is None
        assert error.startswith("shard 'annex':")


# -- federation-level reporting ----------------------------------------------


class TestFederationState:
    def test_stats_aggregate_clients_and_nodes(self):
        d = build()
        register_app(d, "music", "h1", ["logic"])
        call(d, "h2", "application_hosts", {"app_name": "music"})
        call(d, "h2", "application_hosts", {"app_name": "music"})
        stats = d.federation.stats()
        assert stats["registry_shards"] == 3
        assert stats["registry_aggregators"] >= 1
        assert stats["registry_cache_hits"] >= 1
        assert stats["registry_cache_misses"] >= 1
        assert stats["registry_invalidations"] >= 1
        call(d, "h2", "lookup_application", {"app_name": "music",
                                             "host": "h1"})
        assert d.federation.total_lookups() >= 1
