"""Federated registry: per-space shards and gateway aggregation.

The paper's registry center (§4.2.2) is a single jUDDI+MySQL node; the
flat :class:`~repro.registry.registry.RegistryCenter` reproduces it
faithfully but centralises every lookup, which ROADMAP item 3 flags as
the first scaling wall at city size.  This module federates it without
changing the RPC surface:

* :class:`RegistryShard` -- a ``RegistryCenter`` that owns one smart
  space's registrations.  As in the flat center, a record stays until
  something deregisters it, whether or not its host is online.
* :class:`FederationNode` -- the per-host network endpoint.  One host
  can serve several shards (a hub gateway aggregating its homes) and
  optionally act as an aggregator: global operations fan out to every
  shard over the simulated network, paying real round trips, and merge
  deterministically.
* :class:`FederatedRegistryClient` -- routes each operation to the
  owning shard (or an aggregator for global reads) and keeps a TTL read
  cache whose entries carry a *coherence token*; any registry write or
  invalidating app-lifecycle event (the PR 5 prestaging seam) bumps the
  token, so a stale entry can never be served even inside its TTL.
* :class:`RegistryFederation` -- the deployment-level coordinator:
  shard/aggregator placement, generation + lifecycle-epoch state and
  per-host clients.

Correctness contract: on the same population, every federated lookup
returns byte-identical results to the flat center -- proven by the
differential oracle suite in ``tests/registry/test_federation_oracle.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.simnet import Message, Network
from repro.ontology.matching import SUBSTITUTABLE, UNSUBSTITUTABLE
from repro.registry.registry import (
    READ_OPERATIONS, REGISTRY_PROCESSING_MS, REGISTRY_PROTOCOL,
    REGISTRY_TIMEOUT_MS, WRITE_OPERATIONS, _REQUEST_SIZE, _RESPONSE_SIZE,
    RegistryCenter, RegistryClient, RegistryError, cache_key,
    count_registry_message, count_registry_request, emit_registry_event,
    observe_lookup_latency)

#: App-lifecycle events that invalidate cached registry reads.  This is
#: the invalidation seam PR 5 built for prestaging; the prestager and the
#: federation now share the same set (``repro.core.prestage`` imports it
#: from here).
INVALIDATING_EVENTS = frozenset({"started", "resumed", "stopped",
                                 "rolled-back"})

#: Reads whose results depend on a single application's records.
APP_READ_OPERATIONS = frozenset({
    "lookup_application", "components_at", "application_hosts",
})

#: Key riding inside request args to address one shard on a multi-shard
#: node; stripped before dispatch, never visible to ``RegistryCenter``.
_SPACE_HINT = "__space__"

#: Matching operations whose *required* resources may live in another
#: space's shard.  The federated client precedes them with a global
#: ``describe_resources`` read and ships the classification inline under
#: this key; the serving shard materialises ghost individuals from it so
#: semantic matching is byte-identical to the flat center's.
_REQUIRED_INFO = "__required_info__"
MATCHING_OPERATIONS = frozenset({"find_compatible", "rebind_map"})


def routing_host(operation: str, args: Dict[str, Any]) -> Optional[str]:
    """The host whose space's shard owns ``operation``, or ``None`` for
    global operations that must fan out across every shard."""
    if operation in ("register_application", "register_resource"):
        return args["record"]["host"]
    if operation in ("deregister_application", "components_at",
                     "resources_on", "find_compatible", "rebind_map"):
        return args["host"]
    if operation == "lookup_application":
        return args.get("host")
    # application_hosts, semantic_query, describe_resources,
    # lookup_application(host=None) and deregister_resource (the
    # resource's host is unknown to the caller) are global.
    return None


def merge_results(operation: str, args: Dict[str, Any],
                  results: List[Any]) -> Any:
    """Merge per-shard results of a fanned-out operation into exactly
    what the flat center would have returned (the oracle contract)."""
    if operation == "lookup_application":
        merged = [record for part in results for record in part]
        merged.sort(key=lambda record: record["host"])
        return merged
    if operation == "application_hosts":
        return sorted({host for part in results for host in part})
    if operation == "semantic_query":
        # Schema-only rows materialise in every shard; dedup on the full
        # binding, then re-sort the way ``Query.run`` orders rows.
        seen: Dict[Tuple[Tuple[str, str], ...], Dict[str, str]] = {}
        for part in results:
            for row in part:
                seen.setdefault(tuple(sorted(row.items())), row)
        return sorted(seen.values(),
                      key=lambda row: sorted(row.items()))
    if operation == "deregister_resource":
        return any(bool(part) for part in results)
    if operation == "describe_resources":
        # Resource ids are globally unique, so per-shard answers are
        # disjoint; union them in sorted order.
        merged_info: Dict[str, Any] = {}
        for part in results:
            merged_info.update(part)
        return {rid: merged_info[rid] for rid in sorted(merged_info)}
    raise RegistryError(f"operation {operation!r} cannot be merged")


class RegistryShard(RegistryCenter):
    """A registry center owning one space's records.

    Every write flows through :meth:`dispatch`, which then tells the
    federation (``on_write`` bumps coherence generations).
    """

    def __init__(self, space: str):
        super().__init__()
        self.space = space
        #: ``fn(space, operation, args)`` after every write.
        self.on_write: Optional[Callable[..., None]] = None

    def dispatch(self, operation: str, args: Dict[str, Any]) -> Any:
        ghosts: List[str] = []
        if operation in MATCHING_OPERATIONS:
            ghosts = self._install_ghosts(args.pop(_REQUIRED_INFO, None))
        try:
            result = super().dispatch(operation, args)
        finally:
            self._remove_ghosts(ghosts)
        if operation in WRITE_OPERATIONS and self.on_write is not None:
            self.on_write(self.space, operation, args)
        return result

    def _install_ghosts(self, info: Optional[Dict[str, Any]]) -> List[str]:
        """Materialise foreign required resources for one matching call.

        A ghost carries the classes (plus the substitutability verdict,
        pinned with a marker class) its owning shard reported, so
        ``ResourceMatcher`` classifies it exactly as the flat center
        classifies the real record.  Ghosts never enter ``_resources``,
        so they are invisible to inventory reads, and they are removed
        again before the dispatch returns.
        """
        ghosts: List[str] = []
        for resource_id in sorted(info or ()):
            if resource_id in self._resources:
                continue  # we own the real record; no ghost needed
            desc = info[resource_id]
            marker = (SUBSTITUTABLE if desc.get("substitutable")
                      else UNSUBSTITUTABLE)
            self.ontology.individual(resource_id,
                                     list(desc.get("classes") or ())
                                     + [marker])
            ghosts.append(resource_id)
        return ghosts

    def _remove_ghosts(self, ghosts: List[str]) -> None:
        for resource_id in ghosts:
            self._deregister_resource_triples(resource_id)


class _FanoutBatch:
    """Bookkeeping for one global operation fanned out across shards."""

    __slots__ = ("operation", "args", "order", "expected", "results",
                 "errors", "timers", "reply", "cache_key", "token", "done")

    def __init__(self, operation: str, args: Dict[str, Any],
                 order: List[str], expected: int,
                 reply: Callable[[Any, Optional[str]], None],
                 cache_key_: Optional[str], token: Any):
        self.operation = operation
        self.args = args
        self.order = order
        self.expected = expected
        self.results: Dict[str, Any] = {}
        self.errors: Dict[str, str] = {}
        self.timers: Dict[int, Any] = {}
        self.reply = reply
        self.cache_key = cache_key_
        self.token = token
        self.done = False


class FederationNode:
    """Per-host registry endpoint: shard dispatch plus aggregation.

    A node owns the ``registry.rpc`` handler for its host.  Requests
    carrying a space hint (or whose routing host resolves to a local
    shard's space) dispatch locally; global operations fan out one
    sub-request per shard -- local shards answer synchronously, remote
    shards over the network -- and merge once every part arrived.
    Aggregator nodes additionally keep a TTL cache of merged global
    reads, guarded by the same coherence tokens as client caches.
    """

    def __init__(self, federation: "RegistryFederation", host_name: str):
        self.federation = federation
        self.network: Network = federation.network
        self.host_name = host_name
        self.shards: Dict[str, RegistryShard] = {}
        self.aggregator = False
        self.requests_served = 0
        # sub-request id -> (batch, space)
        self._subrequests: Dict[int, Tuple[_FanoutBatch, str]] = {}
        # merged global reads: key -> (expires_at, token, value)
        self._cache: Dict[str, Tuple[float, Any, Any]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.network.host(host_name).register_handler(REGISTRY_PROTOCOL,
                                                      self._on_message)

    # -- network entry points ----------------------------------------------

    def _on_message(self, message: Message) -> None:
        kind = message.payload[0]
        if kind == "request":
            _, request_id, operation, args = message.payload
            self.network.loop.call_later(REGISTRY_PROCESSING_MS,
                                         self._serve, message.source,
                                         request_id, operation, dict(args))
            return
        # A response: either to one of our fan-out sub-requests, or to a
        # RegistryClient colocated on this host (request ids are unique per
        # network, so the pending tables cannot collide).
        _, request_id, result, error = message.payload
        entry = self._subrequests.pop(request_id, None)
        if entry is not None:
            self._on_sub_response(request_id, entry, result, error)
            return
        client = self.network.registry_clients.get(message.destination)
        if client is not None:
            client._on_response(message)

    def _serve(self, reply_to: str, request_id: int, operation: str,
               args: Dict[str, Any]) -> None:
        self.requests_served += 1
        space = args.pop(_SPACE_HINT, None)
        if space is None:
            target = routing_host(operation, args)
            if target is not None:
                space = self.federation.space_with_shard(target)

        def reply(result: Any, error: Optional[str]) -> None:
            self._reply(reply_to, request_id, result, error)

        if space is not None:
            self._serve_shard(operation, args, space, reply)
        else:
            self._serve_global(operation, args, reply)

    def _reply(self, reply_to: str, request_id: int, result: Any,
               error: Optional[str]) -> None:
        payload = ("response", request_id, result, error)
        try:
            self.network.send(self.host_name, reply_to, REGISTRY_PROTOCOL,
                              payload, _RESPONSE_SIZE)
        except Exception:
            return  # requester vanished; its client times out
        count_registry_message(self.network, self.host_name, reply_to)

    # -- local client entry point -------------------------------------------

    def serve_local(self, operation: str, args: Dict[str, Any],
                    space: Optional[str],
                    callback: Callable[[Any, Optional[str]], None]) -> None:
        """Serve a colocated client without a network trip (but still
        asynchronously, preserving callback ordering)."""
        loop = self.network.loop
        count_registry_request(self.network)
        emit_registry_event(self.network, "registry.request",
                            operation=operation, source=self.host_name,
                            target=self.host_name)
        if space is None:
            target = routing_host(operation, args)
            if target is not None:
                space = self.federation.space_with_shard(target)

        def reply(result: Any, error: Optional[str]) -> None:
            if error is None:
                emit_registry_event(self.network, "registry.response",
                                    operation=operation)
            else:
                emit_registry_event(self.network, "registry.fail",
                                    operation=operation, error=error)
            callback(result, error)

        if space is not None:
            loop.call_soon(self._serve_shard, operation, args, space, reply)
        else:
            loop.call_soon(self._serve_global, operation, args, reply)

    # -- shard-scoped serving ----------------------------------------------

    def _serve_shard(self, operation: str, args: Dict[str, Any], space: str,
                     reply: Callable[[Any, Optional[str]], None]) -> None:
        shard = self.shards.get(space)
        if shard is None:
            reply(None, f"no shard for space {space!r} on host "
                        f"{self.host_name!r}")
            return
        try:
            result = shard.dispatch(operation, args)
        except Exception as exc:
            reply(None, str(exc))
            return
        reply(result, None)

    # -- global fan-out ------------------------------------------------------

    def _serve_global(self, operation: str, args: Dict[str, Any],
                      reply: Callable[[Any, Optional[str]], None]) -> None:
        federation = self.federation
        loop = self.network.loop
        key = token = None
        if operation in READ_OPERATIONS and federation.cache_ttl_ms > 0:
            key = cache_key(operation, args)
            token = federation.cache_token(operation, args)
            entry = self._cache.get(key)
            if (entry is not None and entry[0] > loop.now
                    and entry[1] == token):
                self.cache_hits += 1
                federation.note_cache_hit(operation, args, entry[1],
                                          where="aggregator",
                                          host=self.host_name)
                reply(entry[2], None)
                return
            self.cache_misses += 1
            federation.note_cache_miss()
        entries = federation.fanout_entries()
        if not entries:
            reply(None, "no registry shards installed")
            return
        batch = _FanoutBatch(operation, args, [sp for sp, _ in entries],
                             len(entries), reply, key, token)
        remote: List[Tuple[str, str]] = []
        for space, host in entries:
            if host == self.host_name:
                shard = self.shards.get(space)
                try:
                    batch.results[space] = shard.dispatch(operation,
                                                          dict(args))
                except Exception as exc:
                    batch.errors[space] = str(exc)
            else:
                remote.append((space, host))
        for space, host in remote:
            sub_id = next(self.network.registry_request_ids)
            self._subrequests[sub_id] = (batch, space)
            emit_registry_event(self.network, "registry.request",
                                operation=operation, source=self.host_name,
                                target=host)
            try:
                self.network.send(
                    self.host_name, host, REGISTRY_PROTOCOL,
                    ("request", sub_id, operation,
                     {**args, _SPACE_HINT: space}),
                    _REQUEST_SIZE,
                    on_dropped=lambda receipt, sid=sub_id: self._sub_fail(
                        sid, "registry sub-request lost"))
            except Exception as exc:
                self._sub_fail(sub_id, f"shard unreachable: {exc}")
                continue
            count_registry_message(self.network, self.host_name, host)
            batch.timers[sub_id] = loop.call_later(
                REGISTRY_TIMEOUT_MS, self._sub_timeout, sub_id)
        self._maybe_finish(batch)

    def _sub_timeout(self, sub_id: int) -> None:
        if sub_id in self._subrequests:
            self._sub_fail(sub_id, "registry shard timed out")

    def _sub_fail(self, sub_id: int, error: str) -> None:
        entry = self._subrequests.pop(sub_id, None)
        if entry is None:
            return
        batch, space = entry
        timer = batch.timers.pop(sub_id, None)
        if timer is not None:
            timer.cancel()
        emit_registry_event(self.network, "registry.fail",
                            operation=batch.operation, error=error)
        batch.errors[space] = error
        self._maybe_finish(batch)

    def _on_sub_response(self, sub_id: int,
                         entry: Tuple[_FanoutBatch, str],
                         result: Any, error: Optional[str]) -> None:
        batch, space = entry
        timer = batch.timers.pop(sub_id, None)
        if timer is not None:
            timer.cancel()
        emit_registry_event(self.network, "registry.response",
                            operation=batch.operation)
        if error is not None:
            batch.errors[space] = error
        else:
            batch.results[space] = result
        self._maybe_finish(batch)

    def _maybe_finish(self, batch: _FanoutBatch) -> None:
        if batch.done:
            return
        if len(batch.results) + len(batch.errors) < batch.expected:
            return
        batch.done = True
        for timer in batch.timers.values():
            timer.cancel()
        batch.timers.clear()
        if batch.errors:
            space = min(batch.errors)
            label = space if space else "fallback"
            batch.reply(None, f"shard {label!r}: {batch.errors[space]}")
            return
        ordered = [batch.results[space] for space in batch.order]
        try:
            merged = merge_results(batch.operation, batch.args, ordered)
        except Exception as exc:
            batch.reply(None, str(exc))
            return
        if batch.cache_key is not None:
            self._cache[batch.cache_key] = (
                self.network.loop.now + self.federation.cache_ttl_ms,
                batch.token, merged)
        batch.reply(merged, None)


class FederatedRegistryClient(RegistryClient):
    """Host-side stub routing each call to the owning shard.

    Reads are cached for the federation's ``cache_ttl_ms`` of simulated
    time; each entry stores the coherence token current when the request
    was *issued* (conservative: a write landing mid-flight invalidates
    the entry).
    A hit requires both an unexpired TTL and a current token, so writes
    and invalidating lifecycle events take effect immediately -- the
    event-driven invalidation the flat ``CachingRegistryClient`` lacked.
    """

    def __init__(self, network: Network, host_name: str,
                 federation: "RegistryFederation"):
        server = federation.fallback_host or host_name
        super().__init__(network, host_name, server)
        self.federation = federation
        # key -> (expires_at, token, value)
        self._cache: Dict[str, Tuple[float, Any, Any]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: Sabotage seam for simcheck: serve TTL-valid entries without
        #: checking the coherence token (a deliberately broken cache).
        self._skip_token_check = False

    def call(self, operation: str, args: Dict[str, Any],
             callback: Callable[[Any, Optional[str]], None]) -> None:
        federation = self.federation
        loop = self.network.loop
        target, space = federation.route(self.host_name, operation, args)
        if operation in READ_OPERATIONS and federation.cache_ttl_ms > 0:
            key = cache_key(operation, args)
            token = federation.cache_token(operation, args)
            entry = self._cache.get(key)
            if (entry is not None and entry[0] > loop.now
                    and (self._skip_token_check or entry[1] == token)):
                self.calls += 1
                self.cache_hits += 1
                federation.note_cache_hit(operation, args, entry[1],
                                          where="client",
                                          host=self.host_name)
                observe_lookup_latency(self.network, 0.0)
                loop.call_soon(callback, entry[2], None)
                return
            self.cache_misses += 1
            federation.note_cache_miss()
            inner = callback

            def remember(result: Any, error: Optional[str],
                         _key: str = key, _token: Any = token) -> None:
                if error is None:
                    self._cache[_key] = (
                        loop.now + federation.cache_ttl_ms, _token, result)
                inner(result, error)

            callback = remember
        if (operation in MATCHING_OPERATIONS and _REQUIRED_INFO not in args
                and federation.any_resource_writes()):
            # The required resources may be owned by another space's
            # shard, which the serving shard cannot classify on its own.
            # Fetch their classification first (a global read, itself
            # cached and paying real round trips), then ship it inline.
            required = ([args["required_resource"]]
                        if operation == "find_compatible"
                        else list(args["required"]))
            outer_args, outer_callback = args, callback

            def with_info(info: Any, error: Optional[str]) -> None:
                if error is not None:
                    outer_callback(None, error)
                    return
                self._send_routed(operation,
                                  {**outer_args, _REQUIRED_INFO: info},
                                  target, space, outer_callback)

            self.call("describe_resources",
                      {"resource_ids": sorted(set(required))}, with_info)
            return
        if (operation == "register_resource"
                and federation.any_resource_writes()):
            # A re-registration may move the resource across spaces; the
            # old shard must vacate its record first or inventory reads
            # there would keep serving it (the flat center moves records
            # atomically).  Resource ids are globally unique, so a global
            # deregistration is exactly the uniqueness sweep.
            record_args, record_callback = args, callback

            def then_register(_result: Any, error: Optional[str]) -> None:
                if error is not None:
                    record_callback(None, error)
                    return
                self._send_routed("register_resource", record_args,
                                  target, space, record_callback)

            self._send_routed("deregister_resource",
                              {"resource_id":
                               args["record"]["resource_id"]},
                              *federation.route(self.host_name,
                                                "deregister_resource", {}),
                              callback=then_register)
            return
        self._send_routed(operation, args, target, space, callback)

    def _send_routed(self, operation: str, args: Dict[str, Any],
                     target: Optional[str], space: Optional[str],
                     callback: Callable[[Any, Optional[str]], None]) -> None:
        loop = self.network.loop
        if target is None:
            loop.call_soon(callback, None, "no registry target available")
            return
        if target == self.host_name:
            self.calls += 1
            node = self.federation.nodes[self.host_name]
            if operation in READ_OPERATIONS:
                started = loop.now
                timed_inner = callback

                def timed(result: Any, error: Optional[str]) -> None:
                    observe_lookup_latency(self.network, loop.now - started)
                    timed_inner(result, error)

                callback = timed
            node.serve_local(operation, args, space, callback)
            return
        if space is not None:
            args = {**args, _SPACE_HINT: space}
        super().call(operation, args, callback, server=target)


class RegistryFederation:
    """Deployment-level coordinator for the federated registry.

    Owns shard/aggregator placement, the coherence state that drives
    cache invalidation (per-app write generations, per-app lifecycle
    epochs from the context bus, a global resource generation) and one
    :class:`FederatedRegistryClient` per middleware host.
    """

    def __init__(self, deployment, cache_ttl_ms: float = 2_000.0):
        self.deployment = deployment
        self.network: Network = deployment.network
        self.loop = deployment.loop
        self.cache_ttl_ms = float(cache_ttl_ms)
        self.auto_shards = True
        self.nodes: Dict[str, FederationNode] = {}
        self.shards: Dict[str, RegistryShard] = {}
        self.shard_hosts: Dict[str, str] = {}
        self._shard_order: List[str] = []
        self.fallback_host: Optional[str] = None
        self.default_aggregator: Optional[str] = None
        self.aggregator_for: Dict[str, str] = {}
        self.clients: Dict[str, FederatedRegistryClient] = {}
        self._app_gen: Dict[str, int] = {}
        self._app_epoch: Dict[str, int] = {}
        self._resource_gen = 0
        self.invalidations = 0
        #: Sabotage seam for simcheck: drop lifecycle invalidations (the
        #: bus event arrives but the epoch never bumps).
        self.invalidation_disabled = False

    # -- installation --------------------------------------------------------

    def node_for(self, host_name: str) -> FederationNode:
        node = self.nodes.get(host_name)
        if node is None:
            node = FederationNode(self, host_name)
            self.nodes[host_name] = node
        return node

    def install_fallback(self, host_name: str) -> FederationNode:
        """The shard of last resort, owning records of shard-less spaces
        (keyed by the empty space name)."""
        if self.fallback_host is not None:
            raise RegistryError("federation already has a fallback shard")
        self.fallback_host = host_name
        self._install(":fallback:", "", host_name)
        return self.nodes[host_name]

    def install_shard(self, space: str, host_name: str) -> RegistryShard:
        if not space:
            raise RegistryError("space name must be non-empty "
                                "(the fallback shard owns '')")
        shard = self._install(space, space, host_name)
        if self.default_aggregator is None:
            self.install_aggregator(host_name)
        return shard

    def _install(self, label: str, space: str,
                 host_name: str) -> RegistryShard:
        if space in self.shards:
            raise RegistryError(f"space {label!r} already has a shard")
        shard = RegistryShard(space)
        shard.on_write = self._on_shard_write
        node = self.node_for(host_name)
        node.shards[space] = shard
        self.shards[space] = shard
        self.shard_hosts[space] = host_name
        self._shard_order.append(space)
        return shard

    def install_aggregator(self, host_name: str,
                           spaces: Optional[List[str]] = None
                           ) -> FederationNode:
        node = self.node_for(host_name)
        node.aggregator = True
        if self.default_aggregator is None:
            self.default_aggregator = host_name
        for space in spaces or ():
            self.aggregator_for[space] = host_name
        return node

    def assign_aggregator(self, space: str, host_name: str) -> None:
        self.aggregator_for[space] = host_name

    def client_for(self, host_name: str) -> FederatedRegistryClient:
        client = self.clients.get(host_name)
        if client is None:
            client = FederatedRegistryClient(self.network, host_name, self)
            self.clients[host_name] = client
        return client

    # -- routing -------------------------------------------------------------

    def space_with_shard(self, host_name: str) -> str:
        """The shard space owning ``host_name``'s records ('' = fallback)."""
        try:
            space = self.deployment.topology.space_of(host_name)
        except Exception:
            return ""
        return space if space in self.shards else ""

    def route(self, caller_host: str, operation: str, args: Dict[str, Any]
              ) -> Tuple[Optional[str], Optional[str]]:
        """``(target_host, space_hint)`` for one client call."""
        target = routing_host(operation, args)
        if target is not None:
            space = self.space_with_shard(target)
            return self.shard_hosts.get(space, self.fallback_host), space
        aggregator = self.aggregator_for.get(
            self._space_of(caller_host) or "")
        if aggregator is None:
            aggregator = self.default_aggregator or self.fallback_host
        return aggregator, None

    def _space_of(self, host_name: str) -> Optional[str]:
        try:
            return self.deployment.topology.space_of(host_name)
        except Exception:
            return None

    def fanout_entries(self) -> List[Tuple[str, str]]:
        """Every shard in install order: fallback first, as ``('', host)``."""
        return [(space, self.shard_hosts[space])
                for space in self._shard_order]

    # -- coherence state -----------------------------------------------------

    def any_resource_writes(self) -> bool:
        """Whether any resource was ever (de)registered.  Gates the
        matching/registration compositions: a deployment that never
        registers resources (the common case -- apps bind device classes
        that no host advertises) skips the extra round trips and keeps
        the exact message flow of the direct path."""
        return self._resource_gen > 0

    def cache_token(self, operation: str, args: Dict[str, Any]) -> Any:
        if operation in APP_READ_OPERATIONS:
            app = args["app_name"]
            return ("app", self._app_gen.get(app, 0),
                    self._app_epoch.get(app, 0))
        return ("res", self._resource_gen)

    def _on_shard_write(self, space: str, operation: str,
                        args: Dict[str, Any]) -> None:
        if operation == "register_application":
            app = args["record"]["app_name"]
        elif operation == "deregister_application":
            app = args["app_name"]
        else:
            app = None
        if app is not None:
            self._app_gen[app] = self._app_gen.get(app, 0) + 1
        else:
            self._resource_gen += 1
        self._note_invalidation()
        obs = self.loop.observability
        if obs is not None and obs.hooks:
            if app is not None:
                obs.emit("registry.invalidate", scope="app", app=app,
                         gen=self._app_gen[app], space=space)
            else:
                obs.emit("registry.invalidate", scope="resource",
                         resource_gen=self._resource_gen, space=space)

    def attach_bus(self, bus, topic: str) -> None:
        """Subscribe to app-lifecycle events (the PR 5 prestaging seam):
        any :data:`INVALIDATING_EVENTS` occurrence bumps the app's epoch,
        invalidating every cached read that depends on it."""
        bus.subscribe(topic, self._on_app_event)

    def _on_app_event(self, event) -> None:
        if self.invalidation_disabled:
            return
        if event.attributes.get("event") not in INVALIDATING_EVENTS:
            return
        app = event.subject
        self._app_epoch[app] = self._app_epoch.get(app, 0) + 1
        self._note_invalidation()

    def _note_invalidation(self) -> None:
        self.invalidations += 1
        self._counter("registry.cache.invalidate")

    # -- cache accounting ----------------------------------------------------

    def note_cache_hit(self, operation: str, args: Dict[str, Any],
                       token: Any, where: str, host: str) -> None:
        self._counter("registry.cache.hit")
        obs = self.loop.observability
        if obs is not None and obs.hooks:
            payload: Dict[str, Any] = {"operation": operation,
                                       "where": where, "host": host}
            if token and token[0] == "app":
                payload.update(app=args.get("app_name"), gen=token[1],
                               epoch=token[2])
            elif token:
                payload.update(resource_gen=token[1])
            obs.emit("registry.cache.serve", **payload)

    def note_cache_miss(self) -> None:
        self._counter("registry.cache.miss")

    def _counter(self, name: str) -> None:
        obs = self.loop.observability
        if obs is not None:
            obs.metrics.counter(name).inc()

    # -- reporting -----------------------------------------------------------

    def total_lookups(self) -> int:
        return sum(shard.lookups for shard in self.shards.values())

    def stats(self) -> Dict[str, Any]:
        client_hits = sum(c.cache_hits for c in self.clients.values())
        client_misses = sum(c.cache_misses for c in self.clients.values())
        node_hits = sum(n.cache_hits for n in self.nodes.values())
        node_misses = sum(n.cache_misses for n in self.nodes.values())
        return {
            "registry_shards": len(self.shards),
            "registry_aggregators": sum(
                1 for n in self.nodes.values() if n.aggregator),
            "registry_cache_hits": client_hits + node_hits,
            "registry_cache_misses": client_misses + node_misses,
            "registry_invalidations": self.invalidations,
        }
